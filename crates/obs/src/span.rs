//! Deterministic span profiling over a fixed set of named hot stages.
//!
//! A span is a scoped RAII guard: `let _s = span(GRID_KERNEL);` at the
//! top of a stage, drop at the end. Each drop adds one invocation and
//! the elapsed nanoseconds to that stage's flat atomics, and credits the
//! elapsed time to the enclosing stage's child-time (tracked through a
//! thread-local), so `self_ns = total_ns − child_ns` reports exclusive
//! time per stage.
//!
//! **Determinism contract** (`docs/OBSERVABILITY.md`, extending
//! `docs/CONCURRENCY.md`): invocation counts are pure functions of the
//! input — bit-identical across thread counts and cache modes — because
//! every span sits on a code path whose execution count is itself
//! deterministic. `total_ns`/`self_ns` are wall-clock and explicitly
//! exempt. Parent→child attribution is also thread-local (a stage
//! spawning rayon work does not see the workers' spans as children), so
//! only the flat per-stage counts are part of the contract.
//!
//! **Cost.** Stages are compile-time constants; there is no
//! registration, no locking, and no allocation anywhere on this path.
//! Disabled (the default), `span()` is one relaxed load and a `None`
//! guard whose drop is a branch.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Per-job cluster workload simulation (`workload::cluster` via
/// `core::simulate::workload_series`) — one span per uniquely computed
/// (system, seed) trace.
pub const WORKLOAD_SIM: usize = 0;
/// Carbon-intensity grid kernel over an hourly series.
pub const GRID_KERNEL: usize = 1;
/// Hourly WUE series synthesis from a climate preset.
pub const WUE_SERIES: usize = 2;
/// Simulation-cache lookup (hit or miss) for a demanded system-year.
pub const CACHE_LOOKUP: usize = 3;
/// One fused multi-lane annual reduction pass.
pub const FUSED_REDUCTION: usize = 4;
/// One sweep chunk: prepare, aggregate, fold.
pub const SWEEP_CHUNK: usize = 5;
/// Synthetic job-trace generation (`workload::TraceGenerator`), nested
/// inside [`WORKLOAD_SIM`].
pub const TRACE_GEN: usize = 6;
/// FCFS + EASY-backfill cluster-year scheduling
/// (`workload::ClusterSim`), nested inside [`WORKLOAD_SIM`].
pub const CLUSTER_SIM: usize = 7;
/// Utilization → hourly power/energy conversion
/// (`workload::PowerModel`), nested inside [`WORKLOAD_SIM`].
pub const POWER_MODEL: usize = 8;
/// One sweep chunk's preparation (`scenario::batch`): combination index
/// → compiled section picks and lane keys. Nested inside
/// [`SWEEP_CHUNK`], opened once per chunk.
pub const SWEEP_PREPARE: usize = 9;
/// One sweep chunk's finish (`scenario::batch`): metric arithmetic on
/// the resolved lanes and the top-N (or row) fold. Nested inside
/// [`SWEEP_CHUNK`], opened once per chunk.
pub const TOPN: usize = 10;
/// Number of profiled stages.
pub const STAGE_COUNT: usize = 11;

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
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static INVOCATIONS: [AtomicU64; STAGE_COUNT] = [const { AtomicU64::new(0) }; STAGE_COUNT];
static TOTAL_NS: [AtomicU64; STAGE_COUNT] = [const { AtomicU64::new(0) }; STAGE_COUNT];
static CHILD_NS: [AtomicU64; STAGE_COUNT] = [const { AtomicU64::new(0) }; STAGE_COUNT];

thread_local! {
    /// The innermost open stage on this thread, stored as `stage + 1`
    /// (0 = none) so the resting state is the `Cell` default.
    static CURRENT: Cell<usize> = const { Cell::new(0) };
}

/// Turns profiling on or off process-wide. Off is the default; spans
/// created while off record nothing even if profiling is enabled before
/// they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether profiling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every stage's aggregates (bench harness use; not needed for
/// the CLI, which profiles whole processes).
pub fn reset() {
    for i in 0..STAGE_COUNT {
        INVOCATIONS[i].store(0, Ordering::Relaxed);
        TOTAL_NS[i].store(0, Ordering::Relaxed);
        CHILD_NS[i].store(0, Ordering::Relaxed);
    }
}

/// Opens a span over `stage` (one of the stage constants). The returned
/// guard records on drop; hold it for exactly the stage's extent.
///
/// Two independent sinks see the span: the flat per-stage atomics
/// (when profiling is enabled) and the causal trace recorder (when
/// [`crate::trace`] is enabled *and* this thread is inside a trace
/// context). Either may be on without the other.
#[must_use]
pub fn span(stage: usize) -> SpanGuard {
    let profiled = ENABLED.load(Ordering::Relaxed);
    let trace = crate::trace::open_span();
    if !profiled && trace.is_none() {
        return SpanGuard {
            stage,
            start: None,
            prev: 0,
            profiled: false,
            trace: None,
        };
    }
    let prev = if profiled {
        CURRENT.with(|c| c.replace(stage + 1))
    } else {
        0
    };
    SpanGuard {
        stage,
        start: Some(Instant::now()),
        prev,
        profiled,
        trace,
    }
}

/// RAII guard from [`span`]; records invocation + elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    stage: usize,
    /// `None` when both sinks were off at open — the drop is a no-op.
    start: Option<Instant>,
    prev: usize,
    /// Whether the flat profiling atomics record this span (profiling
    /// was enabled at open).
    profiled: bool,
    /// The span's slot in the active trace, if one was recording.
    trace: Option<crate::trace::OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dt = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if self.profiled {
            INVOCATIONS[self.stage].fetch_add(1, Ordering::Relaxed);
            TOTAL_NS[self.stage].fetch_add(dt, Ordering::Relaxed);
            CURRENT.with(|c| c.set(self.prev));
            if self.prev > 0 {
                CHILD_NS[self.prev - 1].fetch_add(dt, Ordering::Relaxed);
            }
        }
        if let Some(open) = self.trace.take() {
            crate::trace::close_span(open, self.stage, dt);
        }
    }
}

/// One stage's aggregated profile.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StageProfile {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub stage: String,
    /// How many spans closed over this stage — deterministic.
    pub invocations: u64,
    /// Total wall-clock nanoseconds inside the stage — *not*
    /// deterministic.
    pub total_ns: u64,
    /// `total_ns` minus time attributed to nested stages — *not*
    /// deterministic.
    pub self_ns: u64,
}

/// Snapshot of every stage, in stage-constant order (all stages appear,
/// including never-entered ones, so schemas are fixed).
pub fn snapshot() -> Vec<StageProfile> {
    (0..STAGE_COUNT)
        .map(|i| {
            let total = TOTAL_NS[i].load(Ordering::Relaxed);
            let child = CHILD_NS[i].load(Ordering::Relaxed);
            StageProfile {
                stage: STAGE_NAMES[i].to_string(),
                invocations: INVOCATIONS[i].load(Ordering::Relaxed),
                total_ns: total,
                self_ns: total.saturating_sub(child),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span state is process-global, so the span tests run as one test
    // body, serialized with the trace tests that also open spans.
    #[test]
    fn spans_record_nest_and_disable() {
        let _serial = crate::test_lock();
        // Disabled spans record nothing.
        set_enabled(false);
        reset();
        {
            let _s = span(GRID_KERNEL);
        }
        assert_eq!(snapshot()[GRID_KERNEL].invocations, 0);

        // Enabled spans count, and nesting attributes child time.
        set_enabled(true);
        {
            let _outer = span(SWEEP_CHUNK);
            {
                let _inner = span(FUSED_REDUCTION);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        {
            let _again = span(FUSED_REDUCTION);
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap[SWEEP_CHUNK].invocations, 1);
        assert_eq!(snap[FUSED_REDUCTION].invocations, 2);
        assert_eq!(snap.len(), STAGE_COUNT);
        assert_eq!(snap[SWEEP_CHUNK].stage, "sweep_chunk");
        // The outer stage's self time excludes the nested span's ≥2 ms.
        assert!(snap[SWEEP_CHUNK].self_ns <= snap[SWEEP_CHUNK].total_ns);
        let child_ns = snap[SWEEP_CHUNK].total_ns - snap[SWEEP_CHUNK].self_ns;
        assert!(child_ns >= 2_000_000, "child time {child_ns}ns < sleep");

        // A span opened while disabled stays silent even if enabling
        // happens before it drops.
        reset();
        let pending = span(WUE_SERIES);
        set_enabled(true);
        drop(pending);
        assert_eq!(snapshot()[WUE_SERIES].invocations, 0);
        set_enabled(false);
        reset();
    }
}
