//! Lightweight time-series and dataframe substrate for ThirstyFLOPS.
//!
//! The paper's analysis pipeline is pandas-shaped: hourly weather / grid /
//! power telemetry is resampled to months, min-max normalized for the
//! Fig. 11/12 panels, summarized into median/min/max distributions for the
//! Fig. 5/6 box plots, and correlated across metrics. Rust has no blessed
//! lightweight dataframe, so this crate provides exactly the pieces the
//! analysis needs and nothing more:
//!
//! * [`SimCalendar`] / [`Month`] — a fixed 8760-hour simulation year with
//!   month boundaries (no leap days: annual analyses in the paper are
//!   month-granular, so a 365-day year keeps indices trivially stable);
//! * [`HourlySeries`] — one value per hour of a year;
//! * [`MonthlySeries`] — one value per month, produced by resampling;
//! * [`stats`] — mean/median/quantile/std/extremes, min-max normalization,
//!   Pearson and Spearman correlation, distribution summaries;
//! * [`lanes`] — the fused K-lane annual reduction: every annual sum of
//!   K lanes, each in one pass over the hour axis, bit-identical per lane to
//!   the scalar kernels;
//! * [`Frame`] — a tiny named-column table with CSV export and group-by,
//!   used by the experiment harness to emit figure/table rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod frame;
mod hourly;
pub mod lanes;
mod monthly;
pub mod stats;

pub use calendar::{Month, SimCalendar, HOURS_PER_DAY, HOURS_PER_YEAR, MONTHS_PER_YEAR};
pub use frame::{Column, Frame, FrameError};
pub use hourly::HourlySeries;
pub use monthly::MonthlySeries;
pub use stats::{DistributionSummary, StatsError};
