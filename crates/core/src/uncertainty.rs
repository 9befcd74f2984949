//! Uncertainty propagation for footprint estimates.
//!
//! The paper is emphatic that water-footprint modeling is young: "due to
//! the infancy stage of water footprint modeling and lack of
//! standardization … we focus on comparative trade-offs and trends
//! instead of claiming typical %-based improvement". This module makes
//! that honesty mechanical: every factor with a published range (per-source
//! EWF min/median/max, WPC tolerances, yield bands) can be carried as an
//! [`Interval`] and propagated through the models, so results come out as
//! `[lo, mid, hi]` bands instead of false-precision points.
//!
//! Interval arithmetic here is the conservative kind valid for the
//! non-negative quantities these models use (volumes, intensities,
//! energies): sums add endpoints, products multiply the matching extremes.

use thirstyflops_catalog::SystemSpec;
use thirstyflops_grid::{EnergyMix, GridRegion};
use thirstyflops_units::Pue;

use crate::simulate::AnnualReport;

/// A `[lo, mid, hi]` uncertainty band. Invariant: `lo ≤ mid ≤ hi`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Central estimate.
    pub mid: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Builds a band, validating the ordering and non-negativity (model
    /// quantities here are volumes/intensities/energies).
    pub fn new(lo: f64, mid: f64, hi: f64) -> Result<Interval, String> {
        if !(lo.is_finite() && mid.is_finite() && hi.is_finite()) {
            return Err("interval endpoints must be finite".into());
        }
        if lo < 0.0 {
            return Err(format!("negative lower bound {lo}"));
        }
        if !(lo <= mid && mid <= hi) {
            return Err(format!("unordered interval [{lo}, {mid}, {hi}]"));
        }
        Ok(Interval { lo, mid, hi })
    }

    /// A degenerate (certain) value.
    pub fn exact(v: f64) -> Interval {
        Interval {
            lo: v,
            mid: v,
            hi: v,
        }
    }

    /// A band from a relative tolerance: `mid · (1 ± tol)`.
    pub fn with_tolerance(mid: f64, tol: f64) -> Result<Interval, String> {
        if !(0.0..1.0).contains(&tol) {
            return Err(format!("tolerance must be in [0,1): {tol}"));
        }
        Interval::new(mid * (1.0 - tol), mid, mid * (1.0 + tol))
    }

    /// Band width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Relative half-width versus the central estimate (0 for exact).
    pub fn relative_uncertainty(&self) -> f64 {
        if self.mid == 0.0 {
            0.0
        } else {
            self.width() / (2.0 * self.mid)
        }
    }

    /// True if `v` lies within the band.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }

    /// True if two bands overlap — the "can we actually rank these two
    /// systems?" test.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Interval sum.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            mid: self.mid + other.mid,
            hi: self.hi + other.hi,
        }
    }

    /// Interval product (valid for non-negative operands).
    pub fn mul(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo * other.lo,
            mid: self.mid * other.mid,
            hi: self.hi * other.hi,
        }
    }

    /// Scale by a non-negative constant.
    pub fn scale(&self, k: f64) -> Interval {
        debug_assert!(k >= 0.0, "scaling by a negative constant flips bounds");
        Interval {
            lo: self.lo * k,
            mid: self.mid * k,
            hi: self.hi * k,
        }
    }
}

/// The EWF band of an energy mix: share-weighted per-source
/// `(min, median, max)` — how uncertain the indirect intensity is before
/// any telemetry narrows it.
pub fn mix_ewf_interval(mix: &EnergyMix) -> Interval {
    let mut lo = 0.0;
    let mut mid = 0.0;
    let mut hi = 0.0;
    for (source, share) in mix.iter() {
        let r = source.ewf_range();
        lo += share.value() * r.min;
        mid += share.value() * r.median;
        hi += share.value() * r.max;
    }
    Interval { lo, mid, hi }
}

/// Operational water band (Eq. 6 + 7 over bands): `E · (WUE + PUE·EWF)`.
pub fn operational_interval(
    energy_kwh: Interval,
    wue: Interval,
    pue: Pue,
    ewf: Interval,
) -> Interval {
    let wi = wue.add(&ewf.scale(pue.value()));
    energy_kwh.mul(&wi)
}

/// The band on a report's annual operational water (liters): `spec`'s
/// grid-mix EWF band and a ±15 % WUE tolerance around the report's
/// energy — what `compare` and ext02 print.
pub fn operational_band(spec: &SystemSpec, report: &AnnualReport) -> Interval {
    let ewf = mix_ewf_interval(&GridRegion::preset(spec.region).annual_mix());
    let wue = Interval::with_tolerance(report.mean_wue.value(), 0.15).expect("static tolerance");
    operational_interval(Interval::exact(report.energy.value()), wue, spec.pue, ewf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thirstyflops_grid::EnergySource;

    #[test]
    fn construction_and_validation() {
        assert!(Interval::new(1.0, 2.0, 3.0).is_ok());
        assert!(Interval::new(3.0, 2.0, 1.0).is_err());
        assert!(Interval::new(-1.0, 0.0, 1.0).is_err());
        assert!(Interval::new(0.0, f64::NAN, 1.0).is_err());
        let t = Interval::with_tolerance(10.0, 0.2).unwrap();
        assert_eq!(t.lo, 8.0);
        assert_eq!(t.hi, 12.0);
        assert!(Interval::with_tolerance(1.0, 1.5).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = Interval::new(1.0, 2.0, 3.0).unwrap();
        let b = Interval::new(10.0, 20.0, 30.0).unwrap();
        let s = a.add(&b);
        assert_eq!((s.lo, s.mid, s.hi), (11.0, 22.0, 33.0));
        let p = a.mul(&b);
        assert_eq!((p.lo, p.mid, p.hi), (10.0, 40.0, 90.0));
        let k = a.scale(2.0);
        assert_eq!((k.lo, k.mid, k.hi), (2.0, 4.0, 6.0));
        assert_eq!(a.width(), 2.0);
        assert!((a.relative_uncertainty() - 0.5).abs() < 1e-12);
        assert_eq!(Interval::exact(5.0).relative_uncertainty(), 0.0);
    }

    #[test]
    fn overlap_semantics() {
        let a = Interval::new(1.0, 2.0, 3.0).unwrap();
        let b = Interval::new(2.5, 3.0, 4.0).unwrap();
        let c = Interval::new(5.0, 6.0, 7.0).unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(a.contains(2.9));
        assert!(!a.contains(3.1));
    }

    #[test]
    fn hydro_heavy_mix_has_huge_ewf_band() {
        // Hydro's (1, 17, 26) range dominates the uncertainty — the paper's
        // observation about reservoir-shape variance made quantitative.
        let hydro =
            EnergyMix::new(&[(EnergySource::Hydro, 0.5), (EnergySource::Gas, 0.5)]).unwrap();
        let nuke =
            EnergyMix::new(&[(EnergySource::Nuclear, 0.5), (EnergySource::Gas, 0.5)]).unwrap();
        let h = mix_ewf_interval(&hydro);
        let n = mix_ewf_interval(&nuke);
        assert!(h.relative_uncertainty() > n.relative_uncertainty());
        assert!(h.width() > 10.0, "hydro band width {}", h.width());
        // Mid equals the point estimate used elsewhere.
        assert!((h.mid - hydro.ewf().value()).abs() < 1e-12);
    }

    #[test]
    fn operational_band_brackets_point_estimate() {
        let e = Interval::with_tolerance(1.0e6, 0.05).unwrap();
        let wue = Interval::new(2.0, 3.0, 4.5).unwrap();
        let ewf = Interval::new(1.5, 2.0, 3.0).unwrap();
        let pue = Pue::new(1.2).unwrap();
        let band = operational_interval(e, wue, pue, ewf);
        let point = 1.0e6 * (3.0 + 1.2 * 2.0);
        assert!(band.contains(point));
        assert!((band.mid - point).abs() < 1e-6 * point);
        assert!(band.lo < point && band.hi > point);
    }
}
