//! Shared, lazily computed simulation context: the four paper systems'
//! telemetry years are expensive enough (trace + cluster + grid + weather
//! simulation) that the experiments share one copy.

use std::sync::{Arc, OnceLock};

use rayon::prelude::*;
use thirstyflops_catalog::SystemId;
use thirstyflops_core::batch::{year_lane_stats, YearLaneStats};
use thirstyflops_core::SystemYear;
use thirstyflops_obs::trace::propagate;

use crate::SEED;

static YEARS: OnceLock<Vec<Arc<SystemYear>>> = OnceLock::new();
static LANE_STATS: OnceLock<YearLaneStats> = OnceLock::new();

/// The simulated telemetry year for each of the paper's four systems,
/// Table 1 order, computed once per process.
///
/// The four 8760-hour simulations are independent (each seeds its own
/// ChaCha12 stream from `(system, SEED)`), so they fan out across the
/// configured worker threads; the result vector is merged in Table 1
/// order, keeping the contract of `docs/CONCURRENCY.md`. The years are
/// `Arc`s straight out of `core::simcache`, so this context shares
/// storage with every other consumer of the same `(system, SEED)` pair.
pub fn paper_years() -> &'static [Arc<SystemYear>] {
    YEARS.get_or_init(|| {
        SystemId::PAPER
            .par_iter()
            .map(propagate(|&id: &SystemId| SystemYear::simulate(id, SEED)))
            .collect()
    })
}

/// The K-lane annual statistics over [`paper_years`] (operational
/// splits, WI/WUE/EWF means, distribution summaries), computed by one
/// `core::batch` kernel pass per reduction and shared by fig06/07/08.
/// Bit-identical to the per-year scalar expressions the figures used to
/// evaluate — the golden tests pin both paths to the same values.
pub fn paper_lane_stats() -> &'static YearLaneStats {
    LANE_STATS.get_or_init(|| year_lane_stats(paper_years()))
}

/// The year for one of the paper systems.
pub fn year_of(id: SystemId) -> &'static SystemYear {
    paper_years()
        .iter()
        .find(|y| y.spec.id == id)
        .expect("paper systems are precomputed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_stats_match_the_scalar_expressions_bit_for_bit() {
        let stats = paper_lane_stats();
        for (lane, year) in paper_years().iter().enumerate() {
            assert_eq!(stats.operational[lane], year.operational());
            assert_eq!(stats.wi_mean[lane], year.water_intensity().mean());
            assert_eq!(stats.wue_mean[lane], year.wue.mean());
            assert_eq!(stats.ewf_mean[lane], year.ewf.mean());
            assert_eq!(stats.wue_summary[lane], year.wue.summary());
        }
    }

    #[test]
    fn context_is_cached_and_complete() {
        let a = paper_years().as_ptr();
        let b = paper_years().as_ptr();
        assert_eq!(a, b, "OnceLock must cache");
        assert_eq!(paper_years().len(), 4);
        assert_eq!(year_of(SystemId::Fugaku).spec.id, SystemId::Fugaku);
    }
}
