//! Exact order statistics over raw samples.
//!
//! Every percentile here is a nearest-rank percentile: the smallest
//! sample with at least `q · n` samples at or below it. It is always a
//! value that was actually measured, never an interpolation or a
//! histogram bucket edge.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of unsorted samples.
/// `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over samples already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest quantile, at most `want`, that leaves at least
/// [`TAIL_BEYOND`] samples strictly above its nearest rank — p99 needs
/// 1,000 samples. Never below the median: with 20 samples or fewer the
/// median is reported and the tail is unresolved.
pub fn tail_q(n: usize, want: f64) -> f64 {
    if n <= 2 * TAIL_BEYOND {
        return 0.5;
    }
    let most = (n - TAIL_BEYOND) as f64 / n as f64;
    want.min(most).max(0.5)
}

/// Spread of one metric over a run's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes unsorted samples; `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q| quantile_sorted(&sorted, q);
        Some(Summary {
            n: sorted.len(),
            min: *sorted.first()?,
            q1: at(0.25)?,
            median: at(0.5)?,
            q3: at(0.75)?,
            p90: at(0.9)?,
            max: *sorted.last()?,
        })
    }

    /// JSON object with every field.
    pub fn to_json(self) -> String {
        format!(
            "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p90\": {}, \"max\": {}}}",
            self.n, self.min, self.q1, self.median, self.q3, self.p90, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
        assert_eq!(quantile(&xs, 0.9), Some(9.0));
        assert_eq!(quantile(&xs, 0.91), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(10.0));
        assert_eq!(quantile(&xs, 0.01), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = tail_q(xs.len(), 0.99);
        assert_eq!(q, 0.99);
        let p99 = quantile(&xs, q).unwrap();
        assert_eq!(p99, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        for n in [21usize, 50, 100, 999, 1000, 5000] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let q = tail_q(n, 0.99);
            let v = quantile(&xs, q).unwrap();
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond q={q}");
            assert!(q <= 0.99);
        }
        assert_eq!(tail_q(100, 0.99), 0.9);
        assert_eq!(tail_q(20, 0.99), 0.5);
        assert_eq!(tail_q(3, 0.99), 0.5);
    }

    #[test]
    fn summary_holds_quartiles_and_p90() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.n, s.min, s.max), (20, 1.0, 20.0));
        assert_eq!((s.q1, s.median, s.q3, s.p90), (5.0, 10.0, 15.0, 18.0));
        assert!(Summary::of(&[]).is_none());
    }
}
