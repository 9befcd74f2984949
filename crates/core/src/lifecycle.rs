//! Lifecycle analysis: amortizing the one-time embodied water over a
//! service life and comparing systems across upgrade cycles.
//!
//! §6: "this component is critical for accurate comparison across
//! different HPC systems with various hardware types and upgrade cycles".
//! The lifecycle view answers the questions Fig. 4 only gestures at:
//! after how many years does operation dominate manufacturing? What does
//! a mid-life accelerator upgrade do to the total?

use thirstyflops_catalog::SystemSpec;
use thirstyflops_units::{KilowattHours, Liters, LitersPerKilowattHour};

use crate::embodied::processor_water;
use crate::simulate::AnnualReport;

/// Water accounting over a system's whole service life.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LifecycleReport {
    /// Service life in years.
    pub lifetime_years: f64,
    /// One-time embodied water (initial build).
    pub embodied: Liters,
    /// Additional embodied water from mid-life upgrades.
    pub upgrade_embodied: Liters,
    /// Operational water over the whole life.
    pub operational: Liters,
    /// Total energy over the whole life.
    pub energy: KilowattHours,
}

impl LifecycleReport {
    /// Total water over the service life (Eq. 1 integrated).
    pub fn total(&self) -> Liters {
        self.embodied + self.upgrade_embodied + self.operational
    }

    /// Embodied (incl. upgrades) share of lifetime water.
    pub fn embodied_share(&self) -> f64 {
        (self.embodied + self.upgrade_embodied).value() / self.total().value()
    }

    /// Lifetime-amortized water intensity: total water per kWh served —
    /// the honest per-kWh price including manufacturing.
    pub fn amortized_intensity(&self) -> LitersPerKilowattHour {
        LitersPerKilowattHour::new(self.total().value() / self.energy.value())
    }
}

/// Builds lifecycle views from one representative annual report.
#[derive(Debug, Clone)]
pub struct LifecycleModel {
    annual: AnnualReport,
}

impl LifecycleModel {
    /// Wraps a representative annual report (the year is assumed typical;
    /// multi-year telemetry can average reports before wrapping).
    pub fn new(annual: AnnualReport) -> Self {
        Self { annual }
    }

    /// The underlying annual report.
    pub fn annual(&self) -> &AnnualReport {
        &self.annual
    }

    /// Years of operation after which cumulative operational water
    /// exceeds the embodied investment.
    pub fn break_even_years(&self) -> f64 {
        self.annual.embodied_total().value() / self.annual.operational_total().value()
    }

    /// Projects the lifecycle over `lifetime_years` with no upgrades.
    pub fn project(&self, lifetime_years: f64) -> Result<LifecycleReport, String> {
        self.project_with_upgrade(lifetime_years, Liters::ZERO)
    }

    /// Projects with a mid-life upgrade that adds `upgrade_embodied`
    /// water (e.g. a GPU-generation swap).
    pub fn project_with_upgrade(
        &self,
        lifetime_years: f64,
        upgrade_embodied: Liters,
    ) -> Result<LifecycleReport, String> {
        if lifetime_years <= 0.0 || !lifetime_years.is_finite() {
            return Err(format!("lifetime must be positive: {lifetime_years}"));
        }
        if upgrade_embodied.value() < 0.0 {
            return Err("upgrade embodied water must be non-negative".into());
        }
        Ok(LifecycleReport {
            lifetime_years,
            embodied: self.annual.embodied_total(),
            upgrade_embodied,
            operational: self.annual.operational_total() * lifetime_years,
            energy: self.annual.energy * lifetime_years,
        })
    }
}

/// Embodied water of swapping every GPU in a system for `new_gpu`-style
/// packages (the accelerator-upgrade scenario). The retired parts'
/// footprint is sunk; only the new silicon adds water.
pub fn gpu_upgrade_water(
    spec: &SystemSpec,
    new_gpu: &thirstyflops_catalog::ProcessorSpec,
) -> Liters {
    processor_water(new_gpu) * (spec.node.gpus_per_node as f64) * (spec.nodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::FootprintModel;
    use thirstyflops_catalog::hardware::FabSite;
    use thirstyflops_catalog::{ProcessorSpec, SystemId};

    fn model() -> LifecycleModel {
        LifecycleModel::new(FootprintModel::reference(SystemId::Polaris).annual_report(3))
    }

    #[test]
    fn break_even_is_fractional_years_for_paper_systems() {
        // Operational water dominates embodied within the first year for
        // all four paper systems (embodied is a few % of annual
        // operational at these intensities).
        for id in SystemId::PAPER {
            let m = LifecycleModel::new(FootprintModel::reference(id).annual_report(3));
            let be = m.break_even_years();
            assert!(be > 0.0 && be < 1.0, "{id}: break-even {be} years");
        }
    }

    #[test]
    fn projection_identities() {
        let m = model();
        let r = m.project(5.0).unwrap();
        assert!(
            (r.operational.value() - 5.0 * m.annual().operational_total().value()).abs()
                < 1e-6 * r.operational.value()
        );
        assert_eq!(r.upgrade_embodied, Liters::ZERO);
        assert!((r.total() - (r.embodied + r.operational)).value().abs() < 1e-9);
        // Amortized intensity exceeds the operational-only intensity.
        let op_only = m.annual().operational_total().value() / m.annual().energy.value();
        assert!(r.amortized_intensity().value() > op_only);
    }

    #[test]
    fn longer_life_dilutes_embodied_share() {
        let m = model();
        let short = m.project(2.0).unwrap();
        let long = m.project(8.0).unwrap();
        assert!(short.embodied_share() > long.embodied_share());
        // Amortized intensity approaches the operational intensity.
        assert!(long.amortized_intensity().value() < short.amortized_intensity().value());
    }

    #[test]
    fn upgrades_add_water() {
        let m = model();
        let spec = FootprintModel::reference(SystemId::Polaris).spec().clone();
        let h100ish =
            ProcessorSpec::with_yield("Next-gen GPU", 814.0, 4, FabSite::TsmcTaiwan, 350.0, 0.7);
        let upgrade = gpu_upgrade_water(&spec, &h100ish);
        assert!(upgrade.value() > 1e5, "upgrade water {upgrade}");
        let with = m.project_with_upgrade(5.0, upgrade).unwrap();
        let without = m.project(5.0).unwrap();
        assert!(with.total().value() > without.total().value());
        assert!(with.embodied_share() > without.embodied_share());
    }

    #[test]
    fn validation() {
        let m = model();
        assert!(m.project(0.0).is_err());
        assert!(m.project(-3.0).is_err());
        assert!(m.project(f64::INFINITY).is_err());
        assert!(m.project_with_upgrade(5.0, Liters::new(-1.0)).is_err());
    }
}
