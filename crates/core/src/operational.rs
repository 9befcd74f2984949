//! Operational water footprint: Eq. 6–7.
//!
//! `W_direct = E · WUE` (cooling water at the facility) and
//! `W_indirect = E · PUE · EWF` (water consumed generating the
//! facility's electricity). Both are pointwise in time, so hourly energy
//! and intensity series multiply elementwise and sum — in the K-lane
//! kernel (`crate::batch`), whose sums [`OperationalBreakdown::from_aggregates`] reads.

use thirstyflops_timeseries::lanes::LaneAggregates;
use thirstyflops_units::{Fraction, KilowattHours, Liters, Pue};

/// Direct/indirect operational water for a period.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OperationalBreakdown {
    /// Cooling water at the facility (Eq. 6).
    pub direct: Liters,
    /// Generation water upstream (Eq. 7).
    pub indirect: Liters,
}

impl OperationalBreakdown {
    /// Point-in-time evaluation from totals (Eq. 6 + Eq. 7 with scalar
    /// annual means).
    pub fn from_totals(
        energy: KilowattHours,
        wue: thirstyflops_units::LitersPerKilowattHour,
        pue: Pue,
        ewf: thirstyflops_units::LitersPerKilowattHour,
    ) -> Self {
        Self {
            direct: energy * wue,
            indirect: energy * pue * ewf,
        }
    }

    /// Series evaluation from a lane's hourly sums: direct water is
    /// `Σ E·WUE`, indirect water `Σ E·EWF` times `pue`. This is the
    /// faithful path — the paper stresses that WUE and EWF move hour by
    /// hour — and the one place Eq. 7's PUE factor meets an hourly sum.
    pub fn from_aggregates(aggregates: &LaneAggregates, pue: Pue) -> Self {
        Self {
            direct: Liters::new(aggregates.direct_l),
            indirect: Liters::new(aggregates.indirect_per_pue_l * pue.value()),
        }
    }

    /// Total operational water.
    pub fn total(&self) -> Liters {
        self.direct + self.indirect
    }

    /// Direct share of the operational total (Fig. 7's pie slices).
    pub fn direct_share(&self) -> Fraction {
        let t = self.total().value();
        if t <= 0.0 {
            return Fraction::ZERO;
        }
        Fraction::clamped(self.direct.value() / t)
    }

    /// Indirect share of the operational total.
    pub fn indirect_share(&self) -> Fraction {
        self.direct_share().complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thirstyflops_timeseries::HourlySeries;
    use thirstyflops_units::LitersPerKilowattHour;

    /// Eq. 6–7 over hourly series: the lane sums `Σ E·WUE` and `Σ E·EWF`.
    fn from_series(
        energy: &HourlySeries,
        wue: &HourlySeries,
        pue: Pue,
        ewf: &HourlySeries,
    ) -> OperationalBreakdown {
        let (direct_l, indirect_per_pue_l) = (energy.dot(wue), energy.dot(ewf));
        let sums = LaneAggregates {
            direct_l,
            indirect_per_pue_l,
            ..Default::default()
        };
        OperationalBreakdown::from_aggregates(&sums, pue)
    }

    #[test]
    fn totals_match_eq6_eq7() {
        let b = OperationalBreakdown::from_totals(
            KilowattHours::new(1000.0),
            LitersPerKilowattHour::new(3.0),
            Pue::new(1.5).unwrap(),
            LitersPerKilowattHour::new(2.0),
        );
        assert_eq!(b.direct, Liters::new(3000.0));
        assert_eq!(b.indirect, Liters::new(3000.0));
        assert_eq!(b.total(), Liters::new(6000.0));
        assert!((b.direct_share().value() - 0.5).abs() < 1e-12);
        assert!((b.indirect_share().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn series_and_scalar_agree_for_constant_inputs() {
        let energy = HourlySeries::constant(10.0);
        let wue = HourlySeries::constant(2.5);
        let ewf = HourlySeries::constant(1.2);
        let pue = Pue::new(1.25).unwrap();
        let series = from_series(&energy, &wue, pue, &ewf);
        let scalar = OperationalBreakdown::from_totals(
            KilowattHours::new(energy.total()),
            LitersPerKilowattHour::new(2.5),
            pue,
            LitersPerKilowattHour::new(1.2),
        );
        assert!((series.direct.value() - scalar.direct.value()).abs() < 1e-6);
        assert!((series.indirect.value() - scalar.indirect.value()).abs() < 1e-4);
    }

    #[test]
    fn covariance_matters_for_varying_series() {
        // Energy concentrated in high-WUE hours must cost more water than
        // the means-product suggests — the reason the paper insists on
        // hourly accounting.
        let energy = HourlySeries::from_fn(|h| if h % 2 == 0 { 2.0 } else { 0.0 });
        let wue = HourlySeries::from_fn(|h| if h % 2 == 0 { 4.0 } else { 0.0 });
        let ewf = HourlySeries::constant(0.0);
        let pue = Pue::new(1.0).unwrap();
        let b = from_series(&energy, &wue, pue, &ewf);
        let naive = energy.total() * wue.mean();
        assert!(b.direct.value() > naive * 1.5);
    }

    #[test]
    fn zero_energy_zero_water() {
        let zero = HourlySeries::constant(0.0);
        let wue = HourlySeries::constant(3.0);
        let ewf = HourlySeries::constant(2.0);
        let b = from_series(&zero, &wue, Pue::new(1.2).unwrap(), &ewf);
        assert_eq!(b.total(), Liters::ZERO);
        assert_eq!(b.direct_share(), Fraction::ZERO);
    }
}
