//! End-to-end glue: simulate a year of telemetry for a cataloged system
//! and evaluate the full footprint models over it.
//!
//! Simulation goes through the memoized substrate in [`crate::simcache`]:
//! [`SystemYear::simulate`] assembles a year from the workload layer
//! (keyed by `WorkloadKey`), the grid layer and the climate → WUE
//! layer, so a PUE, climate, region or WSI variant of a simulated year
//! re-simulates nothing it shares with that year. There is no
//! switch to turn the memo layers off: the uncached reference
//! ([`SystemYear::simulate_uncached`]) is a test oracle, and
//! `tests/simcache.rs` checks that both give the same bits.

use std::sync::Arc;

use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_grid::GridRegion;
use thirstyflops_obs::span;
use thirstyflops_timeseries::HourlySeries;
use thirstyflops_units::{Fraction, KilowattHours, Liters, LitersPerKilowattHour};
use thirstyflops_workload::{ClusterSim, PowerModel, TraceConfig, TraceGenerator};

use crate::embodied::EmbodiedBreakdown;
use crate::intensity::{self, WaterIntensity};
use crate::operational::OperationalBreakdown;
use crate::scarcity::ScarcityAdjustment;

/// One simulated year of hourly telemetry for a system: exactly the
/// inputs the paper extracts from production logs and public feeds.
#[derive(Debug, Clone)]
pub struct SystemYear {
    /// The system's catalog entry.
    pub spec: SystemSpec,
    /// Machine utilization in `[0, 1]`.
    pub utilization: HourlySeries,
    /// IT energy per hour, kWh.
    pub energy: HourlySeries,
    /// Water usage effectiveness, L/kWh.
    pub wue: HourlySeries,
    /// Energy water factor, L/kWh.
    pub ewf: HourlySeries,
    /// Grid carbon intensity, gCO₂/kWh.
    pub carbon: HourlySeries,
}

/// Per-system trace texture (job sizes/durations differ across centers;
/// values chosen to match each system's published workload character).
fn trace_shape(id: SystemId) -> (f64, f64) {
    // (mean duration hours, mean width fraction of machine)
    match id {
        SystemId::Marconi => (8.0, 0.02),
        SystemId::Fugaku => (6.0, 0.004),
        SystemId::Polaris => (5.0, 0.03),
        SystemId::Frontier => (10.0, 0.015),
        SystemId::Aurora => (8.0, 0.01),
        SystemId::ElCapitan => (12.0, 0.02),
    }
}

/// The memo key of one workload year: exactly what [`workload_series`]
/// reads, every `f64` as its bits. The trace generator and scheduler
/// read the id, node count, target utilization and seed; [`PowerModel`]
/// reads the node only through `NodeConfig::power_at_utilization_watts`,
/// which reads only the peak node power and the idle fraction, so nodes
/// with equal peaks give bit-identical energy. Climate, region, PUE,
/// WSI, plant fleet, storage, DRAM and IC count never reach the workload,
/// so specs that differ only there share one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WorkloadKey {
    id: SystemId,
    nodes: u32,
    mean_utilization: u64,
    peak_power_watts: u64,
    idle_fraction: u64,
    seed: u64,
}

impl WorkloadKey {
    /// The key of `spec`'s workload year under `seed`.
    pub(crate) fn new(spec: &SystemSpec, seed: u64) -> WorkloadKey {
        WorkloadKey {
            id: spec.id,
            nodes: spec.nodes,
            mean_utilization: spec.mean_utilization.to_bits(),
            peak_power_watts: spec.node.peak_power_watts().to_bits(),
            idle_fraction: spec.node.idle_fraction.to_bits(),
            seed,
        }
    }
}

/// The seed-dependent workload path: jobs → utilization → IT energy.
/// This is the single source of truth for the per-lane ChaCha12 seeding
/// (`seed ^ id·φ64`): the workload memo layer and
/// [`SystemYear::simulate_uncached`] both call it. The trace is
/// generated and scheduled one calendar month at a time
/// ([`ClusterSim::simulate_generated`]), so no year-long job list is
/// ever held.
pub(crate) fn workload_series(spec: &SystemSpec, seed: u64) -> (HourlySeries, HourlySeries) {
    // Spans the actual trace + scheduling + power simulation — the cold
    // path's dominant stage. Invocations count simulations that truly
    // ran (memoized repeats don't re-enter).
    let _span = span::span(span::WORKLOAD_SIM);
    let (duration, width) = trace_shape(spec.id);
    let trace = TraceGenerator::new(TraceConfig {
        cluster_nodes: spec.nodes,
        target_utilization: spec.mean_utilization,
        mean_duration_hours: duration,
        mean_width_fraction: width,
        seed: seed ^ (spec.id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    })
    .expect("catalog trace configs are valid");
    let (utilization, _stats) = ClusterSim::new(spec.nodes)
        .expect("catalog systems have nodes")
        .simulate_generated(&trace);
    let energy = PowerModel::new(spec).energy_series(&utilization);
    (utilization, energy)
}

impl SystemYear {
    /// Simulates a year for a cataloged reference system. `seed`
    /// decorrelates years (use the calendar year, e.g. 2023); all
    /// sub-simulators stay deterministic.
    ///
    /// Memoized: a repeated `(system, seed)` call simulates nothing, it
    /// copies five series out of the memo layers (observable through
    /// [`crate::simcache::stats`]). The telemetry is bit-identical to
    /// [`SystemYear::simulate_uncached`], the oracle `tests/simcache.rs`
    /// compares against.
    pub fn simulate(id: SystemId, seed: u64) -> Arc<SystemYear> {
        Self::simulate_spec(SystemSpec::reference(id), seed)
    }

    /// Simulates a year for an arbitrary specification — custom node
    /// counts, regions, climates (e.g. synthetic fleet members or
    /// what-if variants of a reference system). Assembled from the
    /// workload, grid and WUE memo layers like [`SystemYear::simulate`].
    pub fn simulate_spec(spec: SystemSpec, seed: u64) -> Arc<SystemYear> {
        let workload = crate::simcache::workload(&spec, seed);
        // Demand-level spans: one per year asked for, hit or miss.
        let wue = {
            let _span = span::span(span::WUE_SERIES);
            crate::simcache::wue_series(spec.climate)
        };
        let grid = {
            let _span = span::span(span::GRID_KERNEL);
            crate::simcache::grid_year(spec.region)
        };
        Arc::new(SystemYear {
            spec,
            utilization: workload.0.clone(),
            energy: workload.1.clone(),
            wue: (*wue).clone(),
            ewf: grid.ewf().clone(),
            carbon: grid.carbon().clone(),
        })
    }

    /// The fully uncached simulation: recomputes every sub-simulation and
    /// touches no process-wide state. This is the reference
    /// implementation the cached path must match byte for byte
    /// (`tests/simcache.rs`) and the cold-path workload
    /// `./ci.sh bench-json` tracks.
    pub fn simulate_uncached(spec: SystemSpec, seed: u64) -> SystemYear {
        let wue = {
            let _span = span::span(span::WUE_SERIES);
            spec.climate
                .wue_model()
                .hourly_series(&spec.climate.generate())
        };
        let grid = {
            let _span = span::span(span::GRID_KERNEL);
            GridRegion::preset(spec.region).simulate_year()
        };
        let (utilization, energy) = workload_series(&spec, seed);
        SystemYear {
            spec,
            utilization,
            energy,
            wue,
            ewf: grid.ewf().clone(),
            carbon: grid.carbon().clone(),
        }
    }

    /// Hourly water intensity `WI = WUE + PUE·EWF`.
    pub fn water_intensity(&self) -> HourlySeries {
        intensity::hourly_water_intensity(&self.wue, self.spec.pue, &self.ewf)
    }

    /// Hourly operational water, liters per hour.
    pub fn hourly_water(&self) -> HourlySeries {
        self.energy.mul(&self.water_intensity())
    }

    /// Hourly operational water against a water-intensity series the
    /// caller already derived — the reuse path for exports that need
    /// both WI and water (deriving WI twice costs two year-long
    /// allocations and 8760 fused multiply-adds).
    fn hourly_water_with(&self, water_intensity: &HourlySeries) -> HourlySeries {
        self.energy.mul(water_intensity)
    }

    /// Annual IT energy.
    pub fn annual_energy(&self) -> KilowattHours {
        KilowattHours::new(self.energy.total())
    }

    /// Operational breakdown over the year (series-faithful).
    pub fn operational(&self) -> OperationalBreakdown {
        OperationalBreakdown::from_series(&self.energy, &self.wue, self.spec.pue, &self.ewf)
    }

    /// Exports the hourly telemetry as a [`Frame`](thirstyflops_timeseries::Frame) (hour, utilization,
    /// energy, WUE, EWF, WI, carbon) — the dump downstream plotting
    /// pipelines consume via `Frame::to_csv`.
    pub fn hourly_frame(&self) -> thirstyflops_timeseries::Frame {
        // One WI derivation feeds the whole export.
        let wi = self.water_intensity();
        let mut frame = thirstyflops_timeseries::Frame::new();
        let hours: Vec<f64> = (0..self.energy.len()).map(|h| h as f64).collect();
        frame.push_number("hour", hours).expect("first column");
        frame
            .push_number("utilization", self.utilization.values().to_vec())
            .expect("same length");
        frame
            .push_number("energy_kwh", self.energy.values().to_vec())
            .expect("same length");
        frame
            .push_number("wue_l_per_kwh", self.wue.values().to_vec())
            .expect("same length");
        frame
            .push_number("ewf_l_per_kwh", self.ewf.values().to_vec())
            .expect("same length");
        frame
            .push_number("wi_l_per_kwh", wi.values().to_vec())
            .expect("same length");
        frame
            .push_number("carbon_g_per_kwh", self.carbon.values().to_vec())
            .expect("same length");
        frame
    }

    /// Exports monthly aggregates as a [`Frame`](thirstyflops_timeseries::Frame) (month, energy, water,
    /// mean WUE/EWF/WI/CI) — the Fig. 11/12 input table.
    pub fn monthly_frame(&self) -> thirstyflops_timeseries::Frame {
        use thirstyflops_timeseries::Month;
        // One WI derivation feeds both the water totals and the WI means
        // (this used to re-derive the series per column).
        let hourly_wi = self.water_intensity();
        let energy = self.energy.monthly_sum();
        let water = self.hourly_water_with(&hourly_wi).monthly_sum();
        let wue = self.wue.monthly_mean();
        let ewf = self.ewf.monthly_mean();
        let wi = hourly_wi.monthly_mean();
        let ci = self.carbon.monthly_mean();
        let mut frame = thirstyflops_timeseries::Frame::new();
        frame
            .push_text(
                "month",
                Month::ALL.iter().map(|m| m.name().to_string()).collect(),
            )
            .expect("first column");
        let col = |s: &thirstyflops_timeseries::MonthlySeries| -> Vec<f64> {
            Month::ALL.iter().map(|&m| s.get(m)).collect()
        };
        frame
            .push_number("energy_kwh", col(&energy))
            .expect("12 rows");
        frame.push_number("water_l", col(&water)).expect("12 rows");
        frame.push_number("mean_wue", col(&wue)).expect("12 rows");
        frame.push_number("mean_ewf", col(&ewf)).expect("12 rows");
        frame.push_number("mean_wi", col(&wi)).expect("12 rows");
        frame.push_number("mean_ci", col(&ci)).expect("12 rows");
        frame
    }
}

/// The top-level ThirstyFLOPS model for one system.
#[derive(Debug, Clone)]
pub struct FootprintModel {
    spec: SystemSpec,
}

impl FootprintModel {
    /// Model for a cataloged reference system.
    pub fn reference(id: SystemId) -> Self {
        Self {
            spec: SystemSpec::reference(id),
        }
    }

    /// Model for a custom specification.
    pub fn from_spec(spec: SystemSpec) -> Self {
        Self { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Simulates a telemetry year (see [`SystemYear::simulate`]) —
    /// memoized, so repeated reports on one `(spec, seed)` share a year.
    pub fn simulate_year(&self, seed: u64) -> Arc<SystemYear> {
        SystemYear::simulate_spec(self.spec.clone(), seed)
    }

    /// Full annual report: embodied + operational + intensities +
    /// scarcity adjustment.
    pub fn annual_report(&self, seed: u64) -> AnnualReport {
        let year = self.simulate_year(seed);
        AnnualReport::from_year(&year)
    }
}

/// Everything the paper reports per system-year.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnnualReport {
    /// System identifier.
    pub id: SystemId,
    /// Embodied breakdown (one-time).
    pub embodied: EmbodiedBreakdown,
    /// Operational breakdown for the year.
    pub operational: OperationalBreakdown,
    /// Annual IT energy.
    pub energy: KilowattHours,
    /// Annual mean WUE.
    pub mean_wue: LitersPerKilowattHour,
    /// Annual mean EWF.
    pub mean_ewf: LitersPerKilowattHour,
    /// Annual mean WI.
    pub mean_wi: LitersPerKilowattHour,
    /// WSI-adjusted mean WI with split direct/indirect indices (Fig. 8c).
    pub adjusted_wi: LitersPerKilowattHour,
    /// Direct share of operational water (Fig. 7).
    pub direct_share: Fraction,
}

impl AnnualReport {
    /// Evaluates all models over a simulated year.
    pub fn from_year(year: &SystemYear) -> AnnualReport {
        let embodied = EmbodiedBreakdown::for_system(&year.spec);
        let operational = year.operational();
        let mean_wue = LitersPerKilowattHour::new(year.wue.mean());
        let mean_ewf = LitersPerKilowattHour::new(year.ewf.mean());
        let wi = WaterIntensity::new(mean_wue, year.spec.pue, mean_ewf);
        let adjustment = ScarcityAdjustment::from_fleet(year.spec.site_wsi, &year.spec.fleet);
        AnnualReport {
            id: year.spec.id,
            embodied,
            operational,
            energy: year.annual_energy(),
            mean_wue,
            mean_ewf,
            mean_wi: wi.total(),
            adjusted_wi: adjustment.adjust(wi),
            direct_share: operational.direct_share(),
        }
    }

    /// Total embodied water.
    pub fn embodied_total(&self) -> Liters {
        self.embodied.total()
    }

    /// Total operational water for the year.
    pub fn operational_total(&self) -> Liters {
        self.operational.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polaris_year_is_internally_consistent() {
        let year = SystemYear::simulate(SystemId::Polaris, 2023);
        // Utilization bounded, energy positive, intensities positive.
        assert!(year.utilization.max() <= 1.0 + 1e-12);
        assert!(year.utilization.min() >= 0.0);
        assert!(year.annual_energy().value() > 0.0);
        assert!(year.wue.min() >= 0.0);
        assert!(year.ewf.min() > 0.0);
        // WI = WUE + PUE·EWF pointwise.
        let wi = year.water_intensity();
        let h = 4321;
        let expected = year.wue.get(h) + year.spec.pue.value() * year.ewf.get(h);
        assert!((wi.get(h) - expected).abs() < 1e-12);
        // Hourly water sums to the operational total.
        let op = year.operational();
        assert!(
            (year.hourly_water().total() - op.total().value()).abs() < 1e-6 * op.total().value()
        );
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let a = FootprintModel::reference(SystemId::Marconi).annual_report(7);
        let b = FootprintModel::reference(SystemId::Marconi).annual_report(7);
        assert_eq!(a, b);
        let c = FootprintModel::reference(SystemId::Marconi).annual_report(8);
        assert_ne!(a.energy, c.energy);
        // Embodied water is seed-independent (it's a one-time constant).
        assert_eq!(a.embodied, c.embodied);
    }

    #[test]
    fn frontier_magnitudes_match_paper_anecdotes() {
        // Frontier consumes tens of millions of gallons per year
        // (~60 gal/min ⇒ ~1.1e8 L/yr direct). Loose order-of-magnitude
        // band on the direct component.
        let report = FootprintModel::reference(SystemId::Frontier).annual_report(2023);
        let direct = report.operational.direct.value();
        assert!(
            (2e7..2e9).contains(&direct),
            "Frontier direct water {direct} L"
        );
        // Energy: tens to hundreds of GWh.
        let gwh = report.energy.value() / 1e6;
        assert!((50.0..400.0).contains(&gwh), "{gwh} GWh");
    }

    #[test]
    fn telemetry_frames_export() {
        let year = SystemYear::simulate(SystemId::Polaris, 4);
        let hourly = year.hourly_frame();
        assert_eq!(hourly.n_rows(), 8760);
        assert_eq!(hourly.n_cols(), 7);
        // WI column equals WUE + PUE·EWF pointwise.
        let wi = hourly.numbers("wi_l_per_kwh").unwrap();
        let wue = hourly.numbers("wue_l_per_kwh").unwrap();
        let ewf = hourly.numbers("ewf_l_per_kwh").unwrap();
        for h in [0usize, 100, 8759] {
            assert!((wi[h] - (wue[h] + year.spec.pue.value() * ewf[h])).abs() < 1e-9);
        }
        let monthly = year.monthly_frame();
        assert_eq!(monthly.n_rows(), 12);
        // Monthly water sums to the operational total.
        let water: f64 = monthly.numbers("water_l").unwrap().iter().sum();
        assert!((water - year.operational().total().value()).abs() < 1e-6 * water);
        // CSV round-trips structurally.
        let csv = monthly.to_csv();
        assert!(csv.starts_with("month,"));
        assert_eq!(csv.lines().count(), 13);
    }

    #[test]
    fn custom_spec_flows_through() {
        let mut spec = SystemSpec::reference(SystemId::Polaris);
        spec.nodes = 100;
        let model = FootprintModel::from_spec(spec);
        assert_eq!(model.spec().nodes, 100);
    }
}
