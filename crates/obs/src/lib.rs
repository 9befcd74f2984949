//! Workspace-wide observability substrate: metrics registries, the
//! shared log₂-bucket latency histogram, deterministic span profiling, and
//! Prometheus text exposition.
//!
//! Four parts, all std-only; counter updates and span opens take no lock:
//!
//! - **[`registry`]** — named counters and histograms registered
//!   once and updated through cloneable atomic handles. Producers (the
//!   simulation cache, the batch kernel, the sweep evaluator, the cluster
//!   simulator) register their counters in the process-wide
//!   [`registry::global()`] instead of keeping private statics; each
//!   `serve` server registers its HTTP families in a [`Registry`] of its
//!   own. A registry is the only thing that renders Prometheus text.
//! - **[`span`]** — the fixed set of named hot stages and the scoped
//!   RAII span guard over them. The guard keeps no state of its own;
//!   it opens and closes spans in [`trace`]. Disabled spans cost one
//!   relaxed atomic load and allocate nothing.
//! - **[`trace`]** — the one span sink: per-request span trees with
//!   parent links, a fixed-capacity event ring exported as Chrome
//!   `trace_event` JSON, a per-path rollup that `--profile` reads both
//!   its stage table and its folded stacks from, the
//!   [`trace::propagate`] fan-out helper every rayon site goes through,
//!   and fault annotations for structured access logs. Span counts and
//!   tree *shape* are bit-identical across thread counts and cache
//!   modes (`docs/OBSERVABILITY.md`); durations are wall-clock and
//!   explicitly exempt.
//! - **[`report`]** — the `--profile` report (human table or JSON) the
//!   CLI prints to stderr.
//!
//! The one invariant everything here serves: observability must never
//! change observed output. Every CLI `--json` body and HTTP response is
//! byte-identical with the layer enabled, disabled, or absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
mod prom;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use hist::LatencyHistogram;
pub use registry::{Counter, Registry};

/// Serializes the unit tests that flip the process-global trace
/// switch. libtest runs tests on parallel threads, so without
/// it a test that turns profiling on would also count the spans another
/// test opens at the same moment.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the unit value it guards is still
    // valid, so the next test proceeds.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
