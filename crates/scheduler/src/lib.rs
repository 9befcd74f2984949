//! Water-aware operations on top of the ThirstyFLOPS models — the
//! paper's "implications" turned into runnable schedulers:
//!
//! * [`starttime`] — Fig. 13 / Takeaway 9: rank candidate application
//!   start times by water and by carbon impact (they differ!);
//! * [`objective`] — multi-objective scalarization and Pareto fronts over
//!   energy/water/carbon (§6 "co-optimization of multiple sustainability
//!   metrics");
//! * [`geo`] — geo-distributed load balancing baselines (energy-only,
//!   carbon-only, water-only, and a WaterWise-style co-optimizer) over
//!   multiple sites (Takeaway 7);
//! * [`capping`] — Takeaway 5's "water capping": split a constrained
//!   water budget between datacenter cooling and energy generation by
//!   choosing the generation mix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capping;
pub mod deadline;
pub mod geo;
pub mod objective;
pub mod starttime;

pub use capping::{CapOutcome, WaterCapPlanner};
pub use deadline::{DeadlineDecision, DeadlineObjective, DeadlineScheduler};
pub use geo::{GeoBalancer, Placement, Policy, SiteSeries};
pub use objective::{MultiObjective, ParetoPoint};
pub use starttime::{StartTimeImpact, StartTimeOptimizer};
