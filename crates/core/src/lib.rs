//! The ThirstyFLOPS core: the paper's water-footprint models.
//!
//! * [`embodied`] — Eq. 2–5: packaging + manufacturing water for
//!   processors (per-die-area) and memory/storage (per-GB);
//! * [`operational`] — Eq. 6–7: direct (cooling) and indirect
//!   (energy-generation) water from energy × WUE / PUE·EWF;
//! * [`intensity`] — Eq. 8: `WI = WUE + PUE·EWF` and its hourly series;
//! * [`scarcity`] — Eq. 9 + Fig. 9: WSI-adjusted intensity with separate
//!   direct and indirect scarcity indices;
//! * [`withdrawal`] — Table 3 (§6): discharge/reuse/potable modeling of
//!   water *withdrawal* on top of consumption;
//! * [`tradeoff`] — the Fig. 4 embodied-vs-operational ratio analysis;
//! * [`simulate`] — glue: a [`SystemYear`] bundles one simulated year of
//!   utilization, energy, WUE, EWF and carbon intensity for a cataloged
//!   system, and [`FootprintModel`] turns it into an [`AnnualReport`];
//! * [`simcache`] — the process-wide memoized simulation substrate:
//!   sharded single-flight caches for grid years, climate → WUE series,
//!   and whole `Arc<SystemYear>`s (see `docs/PERFORMANCE.md`);
//! * [`batch`] — the batched K-lane evaluation kernel: score K system
//!   configurations per pass over the hour axis, bit-identical per lane
//!   to the scalar path, plus the streaming top-N aggregator sweeps use
//!   to rank 10⁵⁺ cells without materializing every row;
//! * [`params`] — the Table 2 parameter checklist as data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod embodied;
pub mod intensity;
pub mod lifecycle;
pub mod operational;
pub mod params;
pub mod scarcity;
pub mod sensitivity;
pub mod simcache;
pub mod simulate;
pub mod tradeoff;
pub mod uncertainty;
pub mod withdrawal;

pub use embodied::EmbodiedBreakdown;
pub use intensity::WaterIntensity;
pub use lifecycle::{LifecycleModel, LifecycleReport};
pub use operational::OperationalBreakdown;
pub use scarcity::ScarcityAdjustment;
pub use simulate::{AnnualReport, FootprintModel, SystemYear};
pub use tradeoff::RatioGrid;
pub use uncertainty::Interval;
pub use withdrawal::{WithdrawalParams, WithdrawalReport};
