//! The named hot stages and the scoped span guard over them.
//!
//! A span is a scoped RAII guard: `let _s = span(GRID_KERNEL);` at the
//! top of a stage, drop at the end. The guard holds no state of its
//! own: it opens and closes a span in the one sink, [`crate::trace`],
//! which tracks the parent on its context stack and adds each closed
//! span to its per-path rollup. `--profile`'s stage table and folded
//! stacks are both read from that rollup
//! ([`crate::trace::Rollup`]).
//!
//! **Determinism contract** (`docs/OBSERVABILITY.md`, extending
//! `docs/CONCURRENCY.md`): invocation counts and span paths are pure
//! functions of the input — bit-identical across thread counts —
//! because every span sits on a code path whose execution count is
//! itself deterministic, and every fan-out re-attaches its
//! workers under the span open at the fan-out
//! ([`crate::trace::propagate`]). Durations are wall-clock and
//! explicitly exempt.
//!
//! **Cost.** Stages are compile-time constants; there is no
//! registration, no locking, and no allocation on span open. Disabled
//! (the default), `span()` is one relaxed load and an empty guard whose
//! drop is a branch.

/// Per-job cluster workload simulation (`workload::cluster` via
/// `core::simulate::workload_series`) — one span per uniquely computed
/// (system, seed) trace.
pub const WORKLOAD_SIM: usize = 0;
/// One grid-year compute: a grid memo-layer miss, nested in its
/// [`CACHE_LOOKUP`], or the uncached grid kernel.
pub const GRID_KERNEL: usize = 1;
/// One climate → WUE series compute, placed like [`GRID_KERNEL`].
pub const WUE_SERIES: usize = 2;
/// One memo-layer call (`core::simcache`): the lookups of one year or
/// one kernel call's lanes, or one grid lookup, with its computes
/// nested inside.
pub const CACHE_LOOKUP: usize = 3;
/// One fused multi-lane annual reduction pass.
pub const FUSED_REDUCTION: usize = 4;
/// One 512-cell sweep chunk: the fold of its cells.
pub const SWEEP_CHUNK: usize = 5;
/// Synthetic job-trace generation (`workload::TraceGenerator`), nested
/// inside [`WORKLOAD_SIM`], one span per simulated month.
pub const TRACE_GEN: usize = 6;
/// FCFS + EASY-backfill cluster-year scheduling
/// (`workload::ClusterSim`), nested inside [`WORKLOAD_SIM`], one span
/// per simulated month.
pub const CLUSTER_SIM: usize = 7;
/// Utilization → hourly power/energy conversion
/// (`workload::PowerModel`), nested inside [`WORKLOAD_SIM`].
pub const POWER_MODEL: usize = 8;
/// One sweep lane window's preparation (`scenario::batch`): lane
/// sub-combination → compiled section picks and the window's kernel
/// requests. Opened once per window.
pub const SWEEP_PREPARE: usize = 9;
/// One sweep chunk's finish (`scenario::batch`): metric arithmetic on
/// the resolved lanes and the top-N (or row) fold. Nested inside
/// [`SWEEP_CHUNK`], opened once per chunk.
pub const TOPN: usize = 10;
/// One miniAMR regrid (`workload::miniamr`): refinement decision,
/// parallel resample of the new blocks from the old mesh, and the
/// ghost-source map build nested inside it as [`MINIAMR_GHOST`].
pub const MINIAMR_REGRID: usize = 11;
/// The miniAMR ghost-source map build, once per regrid, nested inside
/// [`MINIAMR_REGRID`].
pub const MINIAMR_GHOST: usize = 12;
/// One fused miniAMR stencil sweep over every block.
pub const MINIAMR_STENCIL: usize = 13;
/// Number of profiled stages.
pub const STAGE_COUNT: usize = 14;

/// Stage names, indexed by the stage constants.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "workload_sim",
    "grid_kernel",
    "wue_series",
    "cache_lookup",
    "fused_reduction",
    "sweep_chunk",
    "trace_gen",
    "cluster_sim",
    "power_model",
    "sweep_prepare",
    "topn",
    "miniamr_regrid",
    "miniamr_ghost",
    "miniamr_stencil",
];

/// Opens a span over `stage` (one of the stage constants). The returned
/// guard records on drop; hold it for exactly the stage's extent.
///
/// The span lands in the one sink, [`crate::trace`], when the recorder
/// is enabled *and* this thread is inside a recording context (a
/// [`crate::trace::begin`] root, or a fan-out worker joined through
/// [`crate::trace::propagate`]). Otherwise the guard is empty and its
/// drop is a branch.
#[must_use]
pub fn span(stage: usize) -> SpanGuard {
    SpanGuard(crate::trace::open_span(stage))
}

/// RAII guard from [`span`]; closes the span in the trace on drop.
#[derive(Debug)]
pub struct SpanGuard(Option<crate::trace::OpenSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            crate::trace::close_span(open);
        }
    }
}
