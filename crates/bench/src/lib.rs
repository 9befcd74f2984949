//! Benchmark support: shared inputs for the Criterion benches.
//!
//! The benches live in `benches/`:
//!
//! * `paper_artifacts` — regenerates every paper table/figure
//!   (Fig. 1–14, Tables 1–3) and measures regeneration cost;
//! * `models` — core model evaluation throughput (embodied,
//!   intensity, scarcity, withdrawal);
//! * `timeseries_ops` — the dataframe substrate's kernels;
//! * `miniamr_scaling` — strong scaling of the AMR stencil kernel over
//!   rayon thread counts;
//! * `scheduling` — start-time ranking, geo balancing, water capping.

#![forbid(unsafe_code)]

use thirstyflops_catalog::SystemId;
use thirstyflops_core::SystemYear;

/// A cheap-but-realistic simulated year (Polaris is the smallest paper
/// system, so its trace/cluster simulation is the fastest). Memoized —
/// every bench suite in the process shares one `Arc`d copy.
pub fn small_system_year() -> std::sync::Arc<SystemYear> {
    SystemYear::simulate(SystemId::Polaris, 77)
}
