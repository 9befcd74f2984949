//! Geo-distributed load balancing across HPC sites (Takeaway 7 and the
//! WACE / WaterWise related work).
//!
//! Each hour, a divisible workload of `load_kwh` IT-energy must be placed
//! on one of several sites. Policies:
//!
//! * **EnergyOnly** — minimize facility energy (pick the lowest PUE):
//!   the classical energy-aware baseline the paper warns about;
//! * **CarbonOnly** — minimize `PUE · CI`;
//! * **WaterOnly** — minimize `WI = WUE + PUE·EWF`;
//! * **CoOptimize** — minimize a weighted combination of normalized
//!   water and carbon (WaterWise-style).

use thirstyflops_core::SystemYear;
use thirstyflops_timeseries::{HourlySeries, HOURS_PER_YEAR};
use thirstyflops_units::{GramsCo2, KilowattHours, Liters, Pue};

use crate::objective::MultiObjective;

/// Pre-extracted per-site hourly series used by the balancer.
#[derive(Debug, Clone)]
pub struct SiteSeries {
    /// Site label.
    pub name: String,
    /// Facility PUE.
    pub pue: Pue,
    /// Hourly water intensity, L/kWh (WUE + PUE·EWF).
    pub wi: HourlySeries,
    /// Hourly `PUE·CI`, g/kWh.
    pub effective_ci: HourlySeries,
}

impl SiteSeries {
    /// Extracts balancer inputs from a simulated system-year.
    pub fn from_year(year: &SystemYear) -> Self {
        Self {
            name: year.spec.id.to_string(),
            pue: year.spec.pue,
            wi: year.water_intensity(),
            effective_ci: year.carbon.scale(year.spec.pue.value()),
        }
    }
}

/// A placement policy.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Policy {
    /// Minimize facility energy (lowest PUE wins every hour).
    EnergyOnly,
    /// Minimize effective carbon intensity.
    CarbonOnly,
    /// Minimize water intensity.
    WaterOnly,
    /// Minimize normalized water+carbon blend.
    CoOptimize(MultiObjective),
}

/// Aggregate outcome of a year of placements.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Placement {
    /// Policy used.
    pub policy: Policy,
    /// Total water over the year.
    pub water: Liters,
    /// Total carbon over the year.
    pub carbon: GramsCo2,
    /// Total facility energy over the year.
    pub facility_energy: KilowattHours,
    /// How many hours each site won (same order as the input sites).
    pub hours_per_site: Vec<usize>,
}

/// The geo load balancer.
#[derive(Debug, Clone)]
pub struct GeoBalancer {
    sites: Vec<SiteSeries>,
}

impl GeoBalancer {
    /// Builds from at least two sites.
    pub fn new(sites: Vec<SiteSeries>) -> Result<Self, String> {
        if sites.len() < 2 {
            return Err("geo balancing needs at least two sites".into());
        }
        Ok(Self { sites })
    }

    /// The sites.
    pub fn sites(&self) -> &[SiteSeries] {
        &self.sites
    }

    /// Places `load_kwh` of IT energy every hour of the year according to
    /// `policy` and accumulates the footprint.
    pub fn run_year(&self, load_kwh: f64, policy: Policy) -> Placement {
        // Normalization constants for the co-optimizer: annual mean WI
        // and effective CI across sites.
        let mean_wi: f64 =
            self.sites.iter().map(|s| s.wi.mean()).sum::<f64>() / self.sites.len() as f64;
        let mean_ci: f64 = self
            .sites
            .iter()
            .map(|s| s.effective_ci.mean())
            .sum::<f64>()
            / self.sites.len() as f64;

        let mut water = 0.0;
        let mut carbon = 0.0;
        let mut facility = 0.0;
        let mut hours_per_site = vec![0usize; self.sites.len()];

        for hour in 0..HOURS_PER_YEAR {
            let winner = self.pick(hour, policy, mean_wi, mean_ci);
            let site = &self.sites[winner];
            hours_per_site[winner] += 1;
            water += load_kwh * site.wi.get(hour);
            carbon += load_kwh * site.effective_ci.get(hour);
            facility += load_kwh * site.pue.value();
        }

        Placement {
            policy,
            water: Liters::new(water),
            carbon: GramsCo2::new(carbon),
            facility_energy: KilowattHours::new(facility),
            hours_per_site,
        }
    }

    fn pick(&self, hour: usize, policy: Policy, mean_wi: f64, mean_ci: f64) -> usize {
        let score = |i: usize| -> f64 {
            let s = &self.sites[i];
            match policy {
                Policy::EnergyOnly => s.pue.value(),
                Policy::CarbonOnly => s.effective_ci.get(hour),
                Policy::WaterOnly => s.wi.get(hour),
                Policy::CoOptimize(w) => w.score(
                    s.pue.value(), // energy proxy: PUE (normalized ~1)
                    s.wi.get(hour) / mean_wi.max(1e-12),
                    s.effective_ci.get(hour) / mean_ci.max(1e-12),
                ),
            }
        };
        (0..self.sites.len())
            .min_by(|&a, &b| score(a).partial_cmp(&score(b)).unwrap())
            .expect("at least two sites")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_sites() -> Vec<SiteSeries> {
        // Site A: efficient (PUE 1.1) but thirsty grid; water peaks at
        // midday. Site B: inefficient (PUE 1.6) but water-light; carbon
        // heavy. Site C: middling on both, carbon-light.
        let a = SiteSeries {
            name: "A".into(),
            pue: Pue::new(1.1).unwrap(),
            wi: HourlySeries::from_fn(|h| {
                6.0 + 2.0 * (((h % 24) as f64 - 13.0) / 24.0 * core::f64::consts::TAU).cos()
            }),
            effective_ci: HourlySeries::constant(350.0),
        };
        let b = SiteSeries {
            name: "B".into(),
            pue: Pue::new(1.6).unwrap(),
            wi: HourlySeries::constant(2.0),
            effective_ci: HourlySeries::constant(800.0),
        };
        let c = SiteSeries {
            name: "C".into(),
            pue: Pue::new(1.3).unwrap(),
            wi: HourlySeries::constant(5.0),
            effective_ci: HourlySeries::constant(150.0),
        };
        vec![a, b, c]
    }

    #[test]
    fn each_pure_policy_wins_its_own_metric() {
        let balancer = GeoBalancer::new(synthetic_sites()).unwrap();
        let energy = balancer.run_year(100.0, Policy::EnergyOnly);
        let water = balancer.run_year(100.0, Policy::WaterOnly);
        let carbon = balancer.run_year(100.0, Policy::CarbonOnly);

        // Water-only has the least water; carbon-only the least carbon;
        // energy-only the least facility energy.
        assert!(water.water.value() <= energy.water.value());
        assert!(water.water.value() <= carbon.water.value());
        assert!(carbon.carbon.value() <= energy.carbon.value());
        assert!(carbon.carbon.value() <= water.carbon.value());
        assert!(energy.facility_energy.value() <= water.facility_energy.value());
        assert!(energy.facility_energy.value() <= carbon.facility_energy.value());
    }

    #[test]
    fn takeaway7_energy_optimal_is_not_water_optimal() {
        let balancer = GeoBalancer::new(synthetic_sites()).unwrap();
        let energy = balancer.run_year(100.0, Policy::EnergyOnly);
        let water = balancer.run_year(100.0, Policy::WaterOnly);
        // The energy-aware placement wastes a lot of water vs water-aware.
        assert!(
            energy.water.value() > 1.5 * water.water.value(),
            "energy policy water {} vs water policy {}",
            energy.water,
            water.water
        );
    }

    #[test]
    fn co_optimizer_sits_between_extremes() {
        let balancer = GeoBalancer::new(synthetic_sites()).unwrap();
        let water = balancer.run_year(100.0, Policy::WaterOnly);
        let carbon = balancer.run_year(100.0, Policy::CarbonOnly);
        let co = balancer.run_year(
            100.0,
            Policy::CoOptimize(MultiObjective::new(0.0, 0.5, 0.5).unwrap()),
        );
        // Co-optimized water is no worse than carbon-only's water, and
        // its carbon no worse than water-only's carbon.
        assert!(co.water.value() <= carbon.water.value() + 1e-6);
        assert!(co.carbon.value() <= water.carbon.value() + 1e-6);
    }

    #[test]
    fn placements_cover_every_hour() {
        let balancer = GeoBalancer::new(synthetic_sites()).unwrap();
        let p = balancer.run_year(50.0, Policy::WaterOnly);
        assert_eq!(p.hours_per_site.iter().sum::<usize>(), HOURS_PER_YEAR);
        // Site B (constant 2.0 WI) wins except when A's trough dips
        // below... A's min is 4.0, so B wins always.
        assert_eq!(p.hours_per_site[1], HOURS_PER_YEAR);
    }

    #[test]
    fn needs_two_sites() {
        assert!(GeoBalancer::new(vec![]).is_err());
        assert!(GeoBalancer::new(synthetic_sites()[..1].to_vec()).is_err());
    }
}
