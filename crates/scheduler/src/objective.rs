//! Multi-objective scalarization and Pareto fronts over
//! (energy, water, carbon) — §6(a)'s "adjustable weights" hook.

use thirstyflops_units::Fraction;

/// Weights over the three sustainability metrics, summing to one.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MultiObjective {
    /// Weight on energy.
    pub energy: Fraction,
    /// Weight on water.
    pub water: Fraction,
    /// Weight on carbon.
    pub carbon: Fraction,
}

impl MultiObjective {
    /// Builds a weight vector; the three weights must sum to 1 (±1e-6).
    pub fn new(energy: f64, water: f64, carbon: f64) -> Result<Self, String> {
        let sum = energy + water + carbon;
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("weights sum to {sum}, expected 1"));
        }
        Ok(Self {
            energy: Fraction::new(energy).map_err(|e| e.to_string())?,
            water: Fraction::new(water).map_err(|e| e.to_string())?,
            carbon: Fraction::new(carbon).map_err(|e| e.to_string())?,
        })
    }

    /// Scalarizes *normalized* metric values (each in comparable units,
    /// lower = better).
    pub fn score(&self, energy: f64, water: f64, carbon: f64) -> f64 {
        self.energy.value() * energy + self.water.value() * water + self.carbon.value() * carbon
    }
}

/// A candidate with its three metric values (lower is better on each).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ParetoPoint<T> {
    /// The candidate payload (a schedule, a site, a start time…).
    pub candidate: T,
    /// Energy metric.
    pub energy: f64,
    /// Water metric.
    pub water: f64,
    /// Carbon metric.
    pub carbon: f64,
}

impl<T> ParetoPoint<T> {
    /// True if `self` dominates `other` (no worse on all metrics, better
    /// on at least one).
    pub fn dominates(&self, other: &Self) -> bool {
        let no_worse =
            self.energy <= other.energy && self.water <= other.water && self.carbon <= other.carbon;
        let better =
            self.energy < other.energy || self.water < other.water || self.carbon < other.carbon;
        no_worse && better
    }
}

/// Extracts the Pareto-efficient subset (indices into `points`).
pub fn pareto_front<T>(points: &[ParetoPoint<T>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && p.dominates(&points[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_validate() {
        assert!(MultiObjective::new(0.5, 0.3, 0.2).is_ok());
        assert!(MultiObjective::new(0.5, 0.5, 0.5).is_err());
        assert!(MultiObjective::new(1.2, -0.2, 0.0).is_err());
    }

    #[test]
    fn single_metric_objectives_ignore_others() {
        let w = MultiObjective::new(0.0, 1.0, 0.0).unwrap();
        assert_eq!(w.score(100.0, 2.0, 500.0), 2.0);
        let e = MultiObjective::new(1.0, 0.0, 0.0).unwrap();
        assert_eq!(e.score(100.0, 2.0, 500.0), 100.0);
        let c = MultiObjective::new(0.0, 0.0, 1.0).unwrap();
        assert_eq!(c.score(100.0, 2.0, 500.0), 500.0);
    }

    #[test]
    fn balanced_score_is_mean() {
        let b = MultiObjective::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0).unwrap();
        assert!((b.score(3.0, 6.0, 9.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn dominance_and_front() {
        let points = vec![
            ParetoPoint {
                candidate: "a",
                energy: 1.0,
                water: 5.0,
                carbon: 3.0,
            },
            ParetoPoint {
                candidate: "b",
                energy: 2.0,
                water: 2.0,
                carbon: 2.0,
            },
            ParetoPoint {
                candidate: "c",
                energy: 3.0,
                water: 3.0,
                carbon: 3.0,
            }, // dominated by b
            ParetoPoint {
                candidate: "d",
                energy: 0.5,
                water: 9.0,
                carbon: 9.0,
            },
        ];
        assert!(points[1].dominates(&points[2]));
        assert!(!points[0].dominates(&points[1]));
        let front = pareto_front(&points);
        assert_eq!(front, vec![0, 1, 3]);
    }

    #[test]
    fn identical_points_do_not_dominate_each_other() {
        let a = ParetoPoint {
            candidate: 1,
            energy: 1.0,
            water: 1.0,
            carbon: 1.0,
        };
        let b = ParetoPoint {
            candidate: 2,
            energy: 1.0,
            water: 1.0,
            carbon: 1.0,
        };
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        let front = pareto_front(&[a, b]);
        assert_eq!(front.len(), 2);
    }
}
