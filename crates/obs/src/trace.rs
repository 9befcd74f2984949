//! The one span sink: causal span trees with parent links, a bounded
//! event ring, and a per-path rollup.
//!
//! Every span ([`crate::span::span`]) lands here. Closing a span
//! pushes its event — trace id, span id, parent link — into one
//! process-wide fixed-capacity ring (exported as Chrome `trace_event`
//! JSON), and adds its duration to the [`Rollup`] entry of its
//! ancestor path. The rollup is what `--profile` reports: the folded
//! stacks are its paths, the stage table is the same rollup summed by
//! leaf stage. It is not bounded by the ring, so an overwritten event
//! never skews either view.
//!
//! **Contexts.** Recording is request-scoped: a thread opens a trace
//! context with [`begin`] (the CLI root, or `serve` per request) and
//! every span that opens while the context is active is recorded with
//! its parent set to the innermost open span. Every rayon fan-out
//! wraps its per-item closure in [`propagate`], so worker spans join
//! the spawning trace under the span open at the fan-out. Spans opened
//! outside any context record nothing. Injected faults [`mark`] the
//! active trace and are also collected per-context for structured
//! access logs.
//!
//! **Determinism** (`docs/OBSERVABILITY.md`, `docs/CONCURRENCY.md` rule
//! seven): the tree *shape* — stage paths and their counts — is a pure
//! function of the input; timestamps, durations, and event *order* in
//! the ring are wall-clock and exempt. Span ids are per-trace
//! sequential and allocation order is scheduling-dependent, which is
//! why shape comparisons go through the [`Rollup`], never raw ids.
//! Sampling ([`sampled`]) keys off the deterministic request ordinal,
//! never wall-clock or RNG.
//!
//! **Cost.** Disabled (the default), the hook in [`crate::span::span`]
//! is one relaxed load. Enabled, span open is thread-local work plus
//! two atomic increments (the span id and the trace's reference count)
//! — no lock and no allocation, because the path key is a packed
//! `u64`. The sink mutex is taken only at span
//! close and only on threads inside a recording context, for the ring
//! push and the rollup update together.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::span::{STAGE_COUNT, STAGE_NAMES};

const _: () = assert!(STAGE_COUNT < 16, "path keys pack stages 4 bits per level");

/// A span's ancestor path, packed: each level holds `stage + 1` in 4
/// bits, the root stage in the most significant non-zero nibble and
/// the span's own stage (the leaf) in the lowest. `Copy`, so opening a
/// span extends its parent's path without allocating. Paths nest at
/// most 16 levels deep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
struct PathKey(u64);

impl PathKey {
    /// The empty path: the parent of every trace root span.
    const ROOT: PathKey = PathKey(0);

    fn child(self, stage: usize) -> PathKey {
        debug_assert!(self.0 >> 60 == 0, "span paths nest at most 16 deep");
        PathKey(self.0 << 4 | (stage as u64 + 1))
    }

    fn parent(self) -> PathKey {
        PathKey(self.0 >> 4)
    }

    fn leaf(self) -> usize {
        (self.0 & 0xF) as usize - 1
    }

    /// `root;…;leaf` stage names.
    fn render(self) -> String {
        let mut names = Vec::new();
        let mut key = self;
        while key != PathKey::ROOT {
            names.push(STAGE_NAMES[key.leaf()]);
            key = key.parent();
        }
        names.reverse();
        names.join(";")
    }
}

/// Default ring capacity, in events. Bounds recorder memory to a few
/// MiB regardless of how long a server runs; at capacity the oldest
/// events are overwritten and counted in `dropped`.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// What a ring entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span (has a duration).
    Span,
    /// An instant annotation (an injected fault site; zero duration).
    Mark,
}

/// One recorded event. `start_ns` is the offset from the owning
/// trace's begin instant, so events of one trace share a clock.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Owning trace (the request ordinal; 0 for the CLI root).
    pub trace_id: u64,
    /// Per-trace sequential span id (1-based; ids are *not* part of
    /// the determinism contract — allocation order races).
    pub span_id: u32,
    /// Enclosing span's id, 0 for trace roots.
    pub parent_id: u32,
    /// Stage name ([`crate::span::STAGE_NAMES`]) or fault site name.
    pub name: &'static str,
    /// Span or mark.
    pub kind: EventKind,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for marks).
    pub dur_ns: u64,
}

/// The sink: the bounded event ring and the per-path rollup, behind
/// one mutex so a span close updates both under one lock.
struct Sink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    /// `(count, total_ns)` of the spans closed on each path.
    paths: BTreeMap<PathKey, (u64, u64)>,
}

impl Sink {
    fn new(capacity: usize) -> Sink {
        Sink {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
            paths: BTreeMap::new(),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn snapshot(&self, last: Option<usize>) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        if let Some(n) = last {
            if out.len() > n {
                out.drain(..out.len() - n);
            }
        }
        out
    }
}

fn sink() -> MutexGuard<'static, Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Sink::new(DEFAULT_CAPACITY)))
        .lock()
        .expect("trace sink lock")
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Sample divisor: a request with ordinal `o` records iff
/// `o % divisor == 0`. 1 (the default) records everything.
static SAMPLE: AtomicU64 = AtomicU64::new(1);

/// Turns the recorder on or off process-wide — the one switch for
/// `--profile`, `--trace-out` and `serve`. Off is the default; while
/// off, span open sees one relaxed load and no thread-local access.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the recorder is enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the sampling divisor (`--trace-sample N` / `1/N`); 0 is
/// normalized to 1 (record every trace).
pub fn set_sample(divisor: u64) {
    SAMPLE.store(divisor.max(1), Ordering::SeqCst);
}

/// The deterministic sampling rule: trace `ordinal` records iff
/// `ordinal % divisor == 0`. Never wall-clock, never RNG, so which
/// requests are traced is reproducible from the request sequence
/// alone (the CLI root is ordinal 0 and therefore always sampled).
pub fn sampled(ordinal: u64) -> bool {
    ordinal % SAMPLE.load(Ordering::Relaxed) == 0
}

/// Resizes the ring, dropping recorded events and the rollup.
/// Test/config use.
pub fn set_capacity(capacity: usize) {
    *sink() = Sink::new(capacity);
}

/// Clears the ring, the dropped counter and the rollup; capacity is
/// kept.
pub fn reset() {
    let mut sink = sink();
    let capacity = sink.capacity;
    *sink = Sink::new(capacity);
}

/// State shared by every thread participating in one trace.
#[derive(Debug)]
struct TraceShared {
    trace_id: u64,
    started: Instant,
    /// Next span id; per-trace so ids stay small and self-contained.
    next_span: AtomicU32,
    /// Whether span/mark events go to the ring (false when the trace
    /// was sampled out — fault marks are still collected for logs).
    record: bool,
    /// Injected-fault sites observed anywhere in this trace, for the
    /// structured access log.
    marks: Mutex<Vec<&'static str>>,
}

/// The innermost open span of one thread's view of a trace: its id
/// and its path, both 0 (the default) for none. A new span's parent.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    span_id: u32,
    path: PathKey,
}

/// One thread's view of a trace: the shared state plus the innermost
/// open span. Each open span remembers the frame it replaced and
/// restores it at close, so no per-thread stack is kept.
struct LocalCtx {
    shared: Arc<TraceShared>,
    top: Frame,
}

thread_local! {
    /// Innermost-last stack of active contexts on this thread
    /// ([`begin`] and [`propagate`]d calls push; their guards pop).
    static CTX: RefCell<Vec<LocalCtx>> = const { RefCell::new(Vec::new()) };
}

/// Pushes a context on this thread; the returned guard pops it.
fn push_ctx(shared: Arc<TraceShared>, top: Frame) -> PopCtx {
    CTX.with(|c| c.borrow_mut().push(LocalCtx { shared, top }));
    PopCtx
}

/// Pops this thread's innermost context on drop.
#[derive(Debug)]
struct PopCtx;

impl Drop for PopCtx {
    fn drop(&mut self) {
        CTX.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Opens a trace context on the current thread. `record` decides
/// whether spans and marks reach the sink (pass the sampling verdict);
/// fault marks are collected either way so access logs stay complete
/// for sampled-out requests. The guard closes the context on drop.
#[must_use]
pub fn begin(trace_id: u64, record: bool) -> TraceGuard {
    let shared = Arc::new(TraceShared {
        trace_id,
        started: Instant::now(),
        next_span: AtomicU32::new(1),
        record,
        marks: Mutex::new(Vec::new()),
    });
    let _pop = push_ctx(Arc::clone(&shared), Frame::default());
    TraceGuard { shared, _pop }
}

/// RAII guard from [`begin`]; dropping it closes the context.
#[derive(Debug)]
pub struct TraceGuard {
    shared: Arc<TraceShared>,
    _pop: PopCtx,
}

impl TraceGuard {
    /// Injected-fault sites observed in this trace so far (across all
    /// attached threads), in observation order.
    pub fn fault_marks(&self) -> Vec<&'static str> {
        self.shared.marks.lock().expect("trace marks lock").clone()
    }
}

/// The fan-out helper every parallel site goes through: captures this
/// thread's active trace once, with its innermost open span pinned as
/// the parent, and attaches it around each call of `f`, wherever the
/// call runs. Worker spans therefore parent under the span open at the
/// fan-out, so the span-tree shape does not depend on the thread count
/// (`docs/CONCURRENCY.md` rule seven). Sampled-out traces are captured
/// too, so fault marks on workers still reach the access log.
///
/// A rayon site reads `items.par_iter().map(propagate(|item| …))`.
pub fn propagate<A, R>(f: impl Fn(A) -> R + Sync) -> impl Fn(A) -> R + Sync {
    let captured = CTX.with(|c| {
        let ctxs = c.borrow();
        ctxs.last().map(|ctx| (Arc::clone(&ctx.shared), ctx.top))
    });
    move |item| {
        let _attached = captured
            .as_ref()
            .map(|(shared, top)| push_ctx(Arc::clone(shared), *top));
        f(item)
    }
}

/// A span admitted to the active trace at open; closed by
/// `close_span` from the span guard's drop.
#[derive(Debug)]
pub struct OpenSpan {
    shared: Arc<TraceShared>,
    frame: Frame,
    parent: Frame,
    start_ns: u64,
}

/// Hook for [`crate::span::span`]: admits the opening span to the
/// active trace, if the recorder is on and this thread is inside a
/// recording context. Cheap `None` otherwise. Takes no lock and
/// allocates nothing.
pub(crate) fn open_span(stage: usize) -> Option<OpenSpan> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    CTX.with(|c| {
        let mut ctxs = c.borrow_mut();
        let ctx = ctxs.last_mut()?;
        if !ctx.shared.record {
            return None;
        }
        let parent = ctx.top;
        ctx.top = Frame {
            span_id: ctx.shared.next_span.fetch_add(1, Ordering::Relaxed),
            path: parent.path.child(stage),
        };
        Some(OpenSpan {
            shared: Arc::clone(&ctx.shared),
            frame: ctx.top,
            parent,
            start_ns: elapsed_ns(&ctx.shared.started),
        })
    })
}

/// Hook for the span guard's drop: restores the parent as this
/// thread's innermost span, then pushes the completed span to the ring
/// and adds it to its path's rollup, under one lock.
pub(crate) fn close_span(open: OpenSpan) {
    let dur_ns = elapsed_ns(&open.shared.started).saturating_sub(open.start_ns);
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().last_mut() {
            if Arc::ptr_eq(&ctx.shared, &open.shared) && ctx.top.span_id == open.frame.span_id {
                ctx.top = open.parent;
            }
        }
    });
    let mut sink = sink();
    let totals = sink.paths.entry(open.frame.path).or_insert((0, 0));
    totals.0 += 1;
    totals.1 += dur_ns;
    sink.push(TraceEvent {
        trace_id: open.shared.trace_id,
        span_id: open.frame.span_id,
        parent_id: open.parent.span_id,
        name: STAGE_NAMES[open.frame.path.leaf()],
        kind: EventKind::Span,
        start_ns: open.start_ns,
        dur_ns,
    });
}

/// Annotates the active trace with an instant mark (an injected fault
/// site). Always collected on the context for access logs; recorded
/// into the ring only for sampled traces. No-op without a context.
pub fn mark(site: &'static str) {
    CTX.with(|c| {
        let ctxs = c.borrow();
        let Some(ctx) = ctxs.last() else { return };
        ctx.shared
            .marks
            .lock()
            .expect("trace marks lock")
            .push(site);
        if !ctx.shared.record || !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let span_id = ctx.shared.next_span.fetch_add(1, Ordering::Relaxed);
        sink().push(TraceEvent {
            trace_id: ctx.shared.trace_id,
            span_id,
            parent_id: ctx.top.span_id,
            name: site,
            kind: EventKind::Mark,
            start_ns: elapsed_ns(&ctx.shared.started),
            dur_ns: 0,
        });
    });
}

fn elapsed_ns(started: &Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The ring's events, oldest first (optionally only the last `n`),
/// plus how many older events were overwritten.
pub fn events_snapshot(last: Option<usize>) -> (Vec<TraceEvent>, u64) {
    let sink = sink();
    (sink.snapshot(last), sink.dropped)
}

/// Formats nanoseconds as Chrome's microsecond timestamps.
fn chrome_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders the ring (optionally only the last `n` events) as Chrome
/// `trace_event` JSON (object format). Spans are complete (`"X"`)
/// events, fault marks are instants (`"i"`); each trace renders as
/// its own track (`tid` = trace id) with per-trace-relative clocks.
pub fn chrome_trace_json(last: Option<usize>) -> String {
    let (events, dropped) = events_snapshot(last);
    let mut out = String::with_capacity(64 + events.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
    out.push_str(&dropped.to_string());
    out.push_str("},\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let common = format!(
            "\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}}}",
            chrome_us(e.start_ns),
            e.trace_id,
            e.trace_id,
            e.span_id,
            e.parent_id,
        );
        match e.kind {
            EventKind::Span => out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"thirstyflops\",\"ph\":\"X\",\"dur\":{},{}}}",
                e.name,
                chrome_us(e.dur_ns),
                common,
            )),
            EventKind::Mark => out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",{}}}",
                e.name, common,
            )),
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One folded stack: the `;`-joined ancestor path of a stage, how
/// many spans closed on that exact path, and their summed self-time.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FoldedStack {
    /// `parent;child;…;stage` path of stage names.
    pub stack: String,
    /// Spans closed on this path — deterministic (the tree-shape
    /// contract).
    pub count: u64,
    /// Summed `dur − direct children's dur` — wall-clock, exempt.
    pub self_ns: u64,
}

/// One stage's aggregated profile: the rollup summed over every path
/// that ends in the stage.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StageProfile {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub stage: String,
    /// How many spans closed over this stage — deterministic.
    pub invocations: u64,
    /// Total wall-clock nanoseconds inside the stage — *not*
    /// deterministic.
    pub total_ns: u64,
    /// `total_ns` minus the time of directly nested spans (including
    /// fan-out workers attached under it) — *not* deterministic.
    pub self_ns: u64,
}

/// A copy of the per-path rollup: `(count, total_ns)` for every span
/// path that closed since the last [`reset`]. Both `--profile` views
/// read it — [`Rollup::folded`] per path, [`Rollup::stages`] per leaf
/// stage — so they always agree.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    paths: BTreeMap<PathKey, (u64, u64)>,
}

/// The current rollup (one lock, one copy of a few dozen entries).
pub fn rollup() -> Rollup {
    Rollup {
        paths: sink().paths.clone(),
    }
}

impl Rollup {
    /// Each path with its count, total and self time. Self time is the
    /// total minus the totals of the path's direct children, which
    /// includes fan-out workers attached under it, so it saturates at
    /// zero when parallel children overlap.
    fn with_self_ns(&self) -> impl Iterator<Item = (PathKey, u64, u64, u64)> + '_ {
        let mut child_ns: BTreeMap<PathKey, u64> = BTreeMap::new();
        for (&path, &(_, total)) in &self.paths {
            *child_ns.entry(path.parent()).or_default() += total;
        }
        self.paths.iter().map(move |(&path, &(count, total))| {
            let children = child_ns.get(&path).copied().unwrap_or(0);
            (path, count, total, total.saturating_sub(children))
        })
    }

    /// Flamegraph-style folded stacks, sorted by rendered path. This is
    /// the canonical tree *shape*: ids and timestamps are erased, so
    /// the output is comparable across thread counts and cache modes.
    pub fn folded(&self) -> Vec<FoldedStack> {
        let mut out: Vec<FoldedStack> = self
            .with_self_ns()
            .map(|(path, count, _, self_ns)| FoldedStack {
                stack: path.render(),
                count,
                self_ns,
            })
            .collect();
        out.sort_by(|a, b| a.stack.cmp(&b.stack));
        out
    }

    /// The same rollup summed by leaf stage, in stage-constant order.
    /// Every stage appears, including never-entered ones, so schemas
    /// are fixed.
    pub fn stages(&self) -> Vec<StageProfile> {
        let mut sums = [(0u64, 0u64, 0u64); STAGE_COUNT];
        for (path, count, total, self_ns) in self.with_self_ns() {
            let sum = &mut sums[path.leaf()];
            sum.0 += count;
            sum.1 += total;
            sum.2 += self_ns;
        }
        STAGE_NAMES
            .iter()
            .zip(sums)
            .map(|(name, (invocations, total_ns, self_ns))| StageProfile {
                stage: (*name).to_string(),
                invocations,
                total_ns,
                self_ns,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    /// `path count` lines of the current rollup.
    fn shape() -> Vec<String> {
        let folded = rollup().folded().into_iter();
        folded.map(|f| format!("{} {}", f.stack, f.count)).collect()
    }

    // Recorder state is process-global, so each test body holds the
    // crate's test lock and restores the defaults before returning.
    #[test]
    fn recorder_contexts_ring_and_folded() {
        let _serial = crate::test_lock();
        // Enabled + context: nested spans land with parent links.
        set_enabled(true);
        reset();
        {
            let _t = begin(7, true);
            {
                let _outer = span::span(span::SWEEP_CHUNK);
                let _inner = span::span(span::FUSED_REDUCTION);
            }
            let _sibling = span::span(span::FUSED_REDUCTION);
        }
        let (events, dropped) = events_snapshot(None);
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.trace_id == 7));
        let outer = events
            .iter()
            .find(|e| e.name == "sweep_chunk")
            .expect("outer span recorded");
        assert_eq!(outer.parent_id, 0);
        let nested = events
            .iter()
            .find(|e| e.name == "fused_reduction" && e.parent_id == outer.span_id)
            .expect("nested span parents to outer");
        assert_eq!(nested.kind, EventKind::Span);
        assert!(events
            .iter()
            .any(|e| e.name == "fused_reduction" && e.parent_id == 0));

        // The rollup erases ids into canonical paths, and the stage
        // table is the same rollup summed by leaf.
        let expected = [
            "fused_reduction 1",
            "sweep_chunk 1",
            "sweep_chunk;fused_reduction 1",
        ];
        assert_eq!(shape(), expected);
        let stages = rollup().stages();
        assert_eq!(stages.len(), span::STAGE_COUNT);
        assert_eq!(stages[span::SWEEP_CHUNK].stage, "sweep_chunk");
        assert_eq!(stages[span::SWEEP_CHUNK].invocations, 1);
        assert_eq!(stages[span::FUSED_REDUCTION].invocations, 2);
        assert_eq!(stages[span::GRID_KERNEL].invocations, 0);

        // Spans without a context stay out of the sink.
        reset();
        {
            let _s = span::span(span::GRID_KERNEL);
        }
        assert!(events_snapshot(None).0.is_empty());
        assert!(shape().is_empty());

        // Sampled-out contexts record no spans but still collect
        // fault marks for the access log.
        {
            let t = begin(3, false);
            let _s = span::span(span::GRID_KERNEL);
            mark("handler_panic");
            assert_eq!(t.fault_marks(), vec!["handler_panic"]);
        }
        assert!(events_snapshot(None).0.is_empty());
        assert!(shape().is_empty());

        // Recording contexts get the mark as an instant event, and
        // propagated workers join with the captured parent edge.
        {
            let t = begin(9, true);
            let root = span::span(span::SWEEP_CHUNK);
            let worker = propagate(|()| {
                let _w = span::span(span::WORKLOAD_SIM);
                mark("simcache_poison");
            });
            std::thread::scope(|s| {
                s.spawn(|| worker(()));
            });
            drop(root);
            assert_eq!(t.fault_marks(), vec!["simcache_poison"]);
        }
        let (events, _) = events_snapshot(None);
        let root = events.iter().find(|e| e.name == "sweep_chunk").unwrap();
        let worker = events.iter().find(|e| e.name == "workload_sim").unwrap();
        assert_eq!(worker.parent_id, root.span_id);
        let fault = events
            .iter()
            .find(|e| e.kind == EventKind::Mark)
            .expect("mark recorded");
        assert_eq!(fault.name, "simcache_poison");
        assert_eq!(fault.dur_ns, 0);
        assert_eq!(shape(), ["sweep_chunk 1", "sweep_chunk;workload_sim 1"]);

        // Chrome export is well-formed and carries both event kinds.
        let json = chrome_trace_json(None);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"workload_sim\""));

        // The ring is bounded: at capacity it overwrites the oldest
        // events and counts the drops instead of growing. The rollup
        // is not bounded by the ring, so it still counts every span.
        set_capacity(4);
        {
            let _t = begin(11, true);
            for _ in 0..10 {
                let _s = span::span(span::GRID_KERNEL);
            }
        }
        let (events, dropped) = events_snapshot(None);
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 6);
        assert_eq!(shape(), ["grid_kernel 10"]);
        // `last=N` trims from the oldest side.
        assert_eq!(events_snapshot(Some(2)).0.len(), 2);

        // Sampling is a pure function of the ordinal.
        set_sample(4);
        assert!(sampled(0));
        assert!(!sampled(3));
        assert!(sampled(8));
        set_sample(0);
        assert!(sampled(3), "divisor 0 records every trace");

        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
    }

    /// Rollup self time excludes nested spans, and the enable switch
    /// is read once, at span open.
    #[test]
    fn spans_record_nest_and_disable() {
        let _serial = crate::test_lock();
        // A disabled span records nothing.
        set_enabled(false);
        reset();
        {
            let _t = begin(1, true);
            let _s = span::span(span::GRID_KERNEL);
        }
        assert!(shape().is_empty());
        set_enabled(true);

        // A nested span's time is its parent's child time: the outer
        // stage's self time excludes the inner span's ≥ 2 ms.
        {
            let _t = begin(1, true);
            let _outer = span::span(span::SWEEP_CHUNK);
            let _inner = span::span(span::FUSED_REDUCTION);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let outer = rollup().stages()[span::SWEEP_CHUNK].clone();
        assert_eq!(outer.invocations, 1);
        assert!(outer.self_ns <= outer.total_ns);
        let child_ns = outer.total_ns - outer.self_ns;
        assert!(child_ns >= 2_000_000, "child time {child_ns}ns < sleep");

        // A span opened while disabled stays silent even if the
        // recorder is enabled before it drops.
        reset();
        set_enabled(false);
        {
            let _t = begin(2, true);
            let pending = span::span(span::WUE_SERIES);
            set_enabled(true);
            drop(pending);
        }
        assert!(shape().is_empty());

        set_enabled(false);
        reset();
    }

    /// `propagate` across two scoped threads gives the same rollup as
    /// the same calls made inline: each call's spans parent under the
    /// span open where the helper was created.
    #[test]
    fn propagate_across_threads_matches_the_inline_rollup() {
        let _serial = crate::test_lock();
        set_enabled(true);
        let work = |_: usize| {
            let _w = span::span(span::WORKLOAD_SIM);
            let _g = span::span(span::TRACE_GEN);
        };
        let run = |threaded: bool| {
            reset();
            {
                let _t = begin(3, true);
                let _root = span::span(span::CACHE_LOOKUP);
                let call = propagate(work);
                if threaded {
                    std::thread::scope(|s| {
                        s.spawn(|| (0..3).for_each(&call));
                        s.spawn(|| (3..5).for_each(&call));
                    });
                } else {
                    (0..5).for_each(&call);
                }
            }
            shape()
        };
        let inline = run(false);
        let expected = [
            "cache_lookup 1",
            "cache_lookup;workload_sim 5",
            "cache_lookup;workload_sim;trace_gen 5",
        ];
        assert_eq!(inline, expected);
        assert_eq!(run(true), inline);

        set_enabled(false);
        reset();
    }
}
