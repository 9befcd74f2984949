//! One value per hour of the simulated year.

use crate::calendar::{Month, SimCalendar, HOURS_PER_YEAR};
use crate::monthly::MonthlySeries;
use crate::stats;

/// A dense series with one `f64` sample per hour of the 8760-hour
/// simulation year.
///
/// This is the exchange format between the substrates: the weather
/// simulator emits hourly WUE, the grid simulator hourly EWF and carbon
/// intensity, the workload simulator hourly power — and the core models
/// combine them pointwise (Eq. 6–8 are all pointwise in time).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HourlySeries {
    values: Vec<f64>,
}

impl HourlySeries {
    /// Builds a series from exactly one year of hourly values.
    ///
    /// # Panics
    /// Panics if `values.len() != HOURS_PER_YEAR` — partial years are a
    /// construction bug in the calling simulator, not a runtime condition.
    pub fn from_vec(values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            HOURS_PER_YEAR,
            "hourly series must cover the whole simulated year"
        );
        Self { values }
    }

    /// Builds a series by evaluating `f(hour)` for each hour of the year.
    pub fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        Self {
            values: (0..HOURS_PER_YEAR).map(&mut f).collect(),
        }
    }

    /// A constant series.
    pub fn constant(value: f64) -> Self {
        Self {
            values: vec![value; HOURS_PER_YEAR],
        }
    }

    /// Number of samples (always `HOURS_PER_YEAR`).
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sample at hour-of-year `hour`.
    #[inline]
    pub fn get(&self, hour: usize) -> f64 {
        self.values[hour]
    }

    /// Raw sample slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterator over `(hour, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied().enumerate()
    }

    /// Pointwise transform.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self {
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Pointwise combination of two series.
    pub fn zip_with(&self, other: &Self, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        Self {
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Pointwise sum.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a + b)
    }

    /// Pointwise product.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a * b)
    }

    /// Fused `self + k·other` in one pass and one allocation — the
    /// `WI = WUE + PUE·EWF` kernel without the intermediate scaled
    /// series. Bit-identical to `self.add(&other.scale(k))`: each
    /// element is computed as `a + (b * k)`, the exact operation order
    /// of the unfused pair.
    pub fn add_scaled(&self, other: &Self, k: f64) -> Self {
        self.zip_with(other, |a, b| a + b * k)
    }

    /// Single-pass product-sum `Σ self·other` with no intermediate
    /// series — the Eq. 6/7 `E·WUE` / `E·EWF` totals. Bit-identical to
    /// `self.mul(other).total()`: the products accumulate left to right
    /// exactly as the unfused pair sums them.
    pub fn dot(&self, other: &Self) -> f64 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Scales every sample by `k`.
    pub fn scale(&self, k: f64) -> Self {
        self.map(|v| v * k)
    }

    /// Sum of all samples (e.g. annual energy from hourly kWh).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean over the year.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values)
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The subrange of samples belonging to `month`.
    fn month_slice(&self, month: Month) -> &[f64] {
        let cal = SimCalendar;
        &self.values[cal.month_hours(month)]
    }

    /// Resamples to monthly means.
    pub fn monthly_mean(&self) -> MonthlySeries {
        MonthlySeries::from_fn(|m| stats::mean(self.month_slice(m)))
    }

    /// Resamples to monthly sums (totals are preserved:
    /// `monthly_sum().total() == total()`).
    pub fn monthly_sum(&self) -> MonthlySeries {
        MonthlySeries::from_fn(|m| self.month_slice(m).iter().sum())
    }

    /// Min-max normalization into `[0, 1]` across the year, as used by the
    /// Fig. 11/12 panels. Constant series normalize to all zeros.
    pub fn normalized(&self) -> Self {
        Self {
            values: stats::min_max_normalize(&self.values),
        }
    }

    /// Mean of the samples in the window `[start, start+len)`, wrapping
    /// around the end of the year (a job started on Dec 31 runs into
    /// January — the start-time experiments of Fig. 13 need this).
    pub fn wrapping_window_mean(&self, start: usize, len: usize) -> f64 {
        assert!(len > 0, "window must be non-empty");
        let sum: f64 = (0..len)
            .map(|i| self.values[(start + i) % HOURS_PER_YEAR])
            .sum();
        sum / len as f64
    }

    /// Summary distribution (min/median/max & quartiles) over the year,
    /// the shape reported by the Fig. 6 box plots.
    pub fn summary(&self) -> stats::DistributionSummary {
        stats::DistributionSummary::from_samples(&self.values)
            .expect("hourly series is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let s = HourlySeries::from_fn(|h| h as f64);
        assert_eq!(s.len(), HOURS_PER_YEAR);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.get(8759), 8759.0);
    }

    #[test]
    #[should_panic(expected = "whole simulated year")]
    fn from_vec_rejects_partial_years() {
        HourlySeries::from_vec(vec![1.0; 100]);
    }

    #[test]
    fn pointwise_algebra() {
        let a = HourlySeries::constant(2.0);
        let b = HourlySeries::constant(3.0);
        assert_eq!(a.add(&b).get(17), 5.0);
        assert_eq!(a.mul(&b).get(17), 6.0);
        assert_eq!(a.scale(10.0).get(17), 20.0);
        assert_eq!(a.map(|v| v * v).get(17), 4.0);
        assert_eq!(a.zip_with(&b, |x, y| y - x).get(17), 1.0);
    }

    #[test]
    fn fused_kernels_match_their_unfused_pairs() {
        let a = HourlySeries::from_fn(|h| ((h * 13) % 29) as f64 * 0.37);
        let b = HourlySeries::from_fn(|h| ((h * 7) % 31) as f64 * 0.11);
        let k = 1.6180339887;
        // add_scaled ≡ add(scale) bit for bit.
        assert_eq!(a.add_scaled(&b, k), a.add(&b.scale(k)));
        // dot ≡ mul().total() bit for bit.
        assert_eq!(a.dot(&b), a.mul(&b).total());
    }

    #[test]
    fn totals_and_extremes() {
        let s = HourlySeries::from_fn(|h| if h == 100 { 10.0 } else { 1.0 });
        assert_eq!(s.total(), (HOURS_PER_YEAR - 1) as f64 + 10.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
        assert!(s.mean() > 1.0 && s.mean() < 1.01);
    }

    #[test]
    fn monthly_resampling_preserves_totals() {
        let s = HourlySeries::from_fn(|h| (h % 7) as f64);
        let monthly = s.monthly_sum();
        assert!((monthly.total() - s.total()).abs() < 1e-6);
    }

    #[test]
    fn monthly_mean_of_month_indicator() {
        let cal = SimCalendar;
        let s = HourlySeries::from_fn(|h| {
            if cal.month_of_hour(h) == Month::July {
                1.0
            } else {
                0.0
            }
        });
        let m = s.monthly_mean();
        assert_eq!(m.get(Month::July), 1.0);
        assert_eq!(m.get(Month::March), 0.0);
    }

    #[test]
    fn normalization_bounds() {
        let s = HourlySeries::from_fn(|h| (h as f64).sin() * 5.0 + 3.0);
        let n = s.normalized();
        assert!(n.min() >= 0.0);
        assert!(n.max() <= 1.0 + 1e-12);
        assert!((n.max() - 1.0).abs() < 1e-12);
        assert!(n.min().abs() < 1e-12);
        // Constant series → all zeros, not NaN.
        assert_eq!(HourlySeries::constant(4.2).normalized().max(), 0.0);
    }

    #[test]
    fn wrapping_window_crosses_year_boundary() {
        let s = HourlySeries::from_fn(|h| if h < 2 { 1.0 } else { 0.0 });
        // Window starting at the last hour of the year, length 3: covers
        // hours 8759, 0, 1 → values 0, 1, 1.
        let m = s.wrapping_window_mean(HOURS_PER_YEAR - 1, 3);
        assert!((m - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn month_slice_lengths() {
        let s = HourlySeries::constant(1.0);
        assert_eq!(s.month_slice(Month::February).len(), 28 * 24);
        assert_eq!(s.month_slice(Month::July).len(), 31 * 24);
    }
}
