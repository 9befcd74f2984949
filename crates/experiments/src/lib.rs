//! One regenerator per paper table and figure.
//!
//! Every function returns an [`Experiment`] — an id, a title, a
//! [`Frame`] of rows matching what the paper's figure/table reports, and
//! free-text notes on the observed shape. The `report` binary prints all
//! of them; the workspace integration tests assert each one's shape
//! claims; the bench harness measures their regeneration cost.
//!
//! All experiments run on the same simulated telemetry year
//! ([`context::paper_years`], seed [`SEED`]), so numbers are reproducible
//! across runs and machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
mod fig_embodied;
mod fig_extensions;
mod fig_maps;
mod fig_operational;
mod fig_scenarios;
mod fig_scheduling;
mod fig_temporal;

use rayon::prelude::*;
use thirstyflops_obs::trace::propagate;
use thirstyflops_timeseries::Frame;

pub use fig_embodied::{fig03, fig04, table01, table02};
pub use fig_extensions::{
    ext01_water500, ext02_uncertainty, ext03_lifecycle, ext04_slack_curve, ext05_policy_frontier,
};
pub use fig_maps::{fig01, fig10};
pub use fig_operational::{fig05, fig06, fig07, fig08, fig09};
pub use fig_scenarios::{fig14, table03};
pub use fig_scheduling::{fig13, JOB_ENERGY_KWH};
pub use fig_temporal::{fig11, fig12};

/// The deterministic telemetry seed used by every experiment (the
/// evaluation year).
pub const SEED: u64 = 2023;

/// One regenerated table/figure.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Experiment {
    /// Paper artifact id, e.g. "fig07".
    pub id: &'static str,
    /// Paper caption, abbreviated.
    pub title: &'static str,
    /// The regenerated rows.
    pub frame: Frame,
    /// Observed-shape notes (what the paper claims vs what we measured).
    pub notes: Vec<String>,
}

/// One artifact id paired with the function that regenerates it.
type Regenerator = (&'static str, fn() -> Experiment);

/// Every regenerator keyed by its artifact id, paper order. The table
/// drives [`all`], [`select`], and [`ids`]: regenerators are pure (shared
/// context aside), so they fan out across worker threads and merge back
/// in this order. `regenerator_table_ids_match_artifacts` pins each key
/// to the id its `Experiment` actually carries.
const REGENERATORS: [Regenerator; 21] = [
    ("fig01", fig01),
    ("table01", table01),
    ("table02", table02),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("table03", table03),
    ("ext01", ext01_water500),
    ("ext02", ext02_uncertainty),
    ("ext03", ext03_lifecycle),
    ("ext04", ext04_slack_curve),
    ("ext05", ext05_policy_frontier),
];

/// All experiments, paper order.
///
/// Regeneration fans out across the configured rayon workers (see
/// `docs/CONCURRENCY.md`); the shared telemetry context is computed once
/// by whichever worker touches it first, and the output order is always
/// the paper order regardless of thread count.
pub fn all() -> Vec<Experiment> {
    select(&ids())
}

/// Only the named experiments, paper order, in one parallel sweep —
/// artifacts not asked for are never regenerated. Unknown ids are
/// skipped; an empty result means nothing matched.
pub fn select(ids: &[&str]) -> Vec<Experiment> {
    let picked: Vec<fn() -> Experiment> = REGENERATORS
        .iter()
        .filter(|(id, _)| ids.contains(id))
        .map(|&(_, regen)| regen)
        .collect();
    picked
        .par_iter()
        .map(propagate(|regen: &fn() -> Experiment| regen()))
        .collect()
}

/// The known artifact ids, paper order (cheap — regenerates nothing).
pub fn ids() -> Vec<&'static str> {
    REGENERATORS.iter().map(|&(id, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_produce_rows() {
        for e in all() {
            assert!(e.frame.n_rows() > 0, "{} has no rows", e.id);
            assert!(e.frame.n_cols() > 0, "{} has no columns", e.id);
            assert!(!e.title.is_empty());
        }
    }

    #[test]
    fn regenerator_table_ids_match_artifacts() {
        let produced: Vec<&str> = all().iter().map(|e| e.id).collect();
        assert_eq!(produced, ids(), "table keys must match Experiment ids");
    }

    #[test]
    fn select_runs_only_matching_artifacts() {
        let picked = select(&["fig05", "nope"]);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].id, "fig05");
        assert!(select(&["nope"]).is_empty());
    }

    #[test]
    fn ids_are_unique_and_paper_complete() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        for required in [
            "fig01", "table01", "table02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
            "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "table03",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }
}
