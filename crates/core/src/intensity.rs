//! Water intensity: Eq. 8.
//!
//! `WI = WUE + PUE·EWF` factors the operational water footprint as
//! `W_operational = E · WI`, making WI the water analogue of carbon
//! intensity: a per-kWh price of water that varies by hour and by region.

use thirstyflops_timeseries::HourlySeries;
use thirstyflops_units::{LitersPerKilowattHour, Pue};

/// A water-intensity decomposition at one instant (or as period means).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WaterIntensity {
    /// Direct component: WUE.
    pub direct: LitersPerKilowattHour,
    /// Indirect component: PUE·EWF.
    pub indirect: LitersPerKilowattHour,
}

impl WaterIntensity {
    /// Builds from WUE, PUE and EWF (Eq. 8).
    pub fn new(wue: LitersPerKilowattHour, pue: Pue, ewf: LitersPerKilowattHour) -> Self {
        Self {
            direct: wue,
            indirect: pue * ewf,
        }
    }

    /// Total water intensity `WI = WUE + PUE·EWF`.
    pub fn total(&self) -> LitersPerKilowattHour {
        self.direct + self.indirect
    }
}

/// Hourly WI series from hourly WUE/EWF and a facility PUE. Uses the
/// fused [`HourlySeries::add_scaled`] kernel — one pass, one allocation,
/// bit-identical to `wue.add(&ewf.scale(pue))`.
pub fn hourly_water_intensity(wue: &HourlySeries, pue: Pue, ewf: &HourlySeries) -> HourlySeries {
    wue.add_scaled(ewf, pue.value())
}

/// Hourly indirect WI (`PUE·EWF`) alone — Fig. 12's middle column.
pub fn hourly_indirect_intensity(pue: Pue, ewf: &HourlySeries) -> HourlySeries {
    ewf.scale(pue.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq8_identity() {
        let wi = WaterIntensity::new(
            LitersPerKilowattHour::new(3.0),
            Pue::new(1.5).unwrap(),
            LitersPerKilowattHour::new(2.0),
        );
        assert_eq!(wi.direct, LitersPerKilowattHour::new(3.0));
        assert_eq!(wi.indirect, LitersPerKilowattHour::new(3.0));
        assert_eq!(wi.total(), LitersPerKilowattHour::new(6.0));
    }

    #[test]
    fn hourly_series_matches_pointwise_formula() {
        let wue = HourlySeries::from_fn(|h| (h % 4) as f64);
        let ewf = HourlySeries::from_fn(|h| (h % 3) as f64 * 0.5);
        let pue = Pue::new(1.2).unwrap();
        let wi = hourly_water_intensity(&wue, pue, &ewf);
        for h in [0usize, 1, 2, 5, 100, 8759] {
            let expected = wue.get(h) + 1.2 * ewf.get(h);
            assert!((wi.get(h) - expected).abs() < 1e-12, "hour {h}");
        }
        let ind = hourly_indirect_intensity(pue, &ewf);
        assert!((ind.get(7) - 1.2 * ewf.get(7)).abs() < 1e-12);
    }

    #[test]
    fn pue_one_means_wi_is_wue_plus_ewf() {
        let wue = HourlySeries::constant(2.0);
        let ewf = HourlySeries::constant(1.5);
        let wi = hourly_water_intensity(&wue, Pue::new(1.0).unwrap(), &ewf);
        assert_eq!(wi.get(0), 3.5);
    }
}
