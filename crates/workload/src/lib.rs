//! HPC workload substrate for ThirstyFLOPS.
//!
//! The paper estimates operational footprints from production telemetry:
//! Marconi's M100 exadata, ALCF's public Polaris logs, Fugaku job logs,
//! and Frontier's power dataset. Those logs aren't redistributable, so
//! this crate rebuilds the same estimation path from synthetic inputs:
//!
//! * [`TraceGenerator`] — a seeded job-trace generator (Poisson arrivals
//!   with seasonal/weekly/diurnal demand cycles, log-normal durations,
//!   heavy-tailed node counts);
//! * [`ClusterSim`] — an hour-stepped FCFS + EASY-backfill cluster
//!   simulator turning a trace into a machine-utilization series;
//! * [`PowerModel`] — utilization × TDP → hourly power and energy (the
//!   paper's own fallback when power logs are missing: "we calculate the
//!   machine utilization from job logs and estimate the energy
//!   consumption ... using the hardware's thermal design power");
//! * [`miniamr`] — a rayon-parallel block-structured AMR stencil kernel
//!   standing in for the miniAMR mini-app of the Fig. 13 experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod miniamr;
mod power;
mod trace;

pub use cluster::{ClusterSim, ClusterStats};
pub use power::PowerModel;
pub use trace::{Job, TraceConfig, TraceGenerator};
