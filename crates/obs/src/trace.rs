//! Bounded causal trace recorder: span trees with parent links.
//!
//! The span profiler ([`crate::span`]) aggregates stages into flat
//! atomics; this module records *individual* span events — each with a
//! trace id, a span id, and a parent link — into one process-wide
//! fixed-capacity ring, so a request's (or a whole CLI run's) causal
//! tree can be exported as Chrome `trace_event` JSON or folded into a
//! flamegraph-style self-time rollup.
//!
//! **Contexts.** Recording is request-scoped: a thread opens a trace
//! context with [`begin`] (the CLI root, or `serve` per request) and
//! every span that opens while the context is active lands in the ring
//! with its parent set to the innermost open span. Fan-out sites
//! (`scenario::batch`) capture a [`TraceHandle`] before spawning and
//! [`TraceHandle::attach`] it on each worker, so worker spans join the
//! spawning trace with a deterministic parent (the span open at the
//! capture site), not whatever the worker happens to be doing.
//! Injected faults [`mark`] the active trace and are also collected
//! per-context for structured access logs.
//!
//! **Determinism** (`docs/OBSERVABILITY.md`, `docs/CONCURRENCY.md` rule
//! seven): the tree *shape* — stage names, parent edges, counts — is a
//! pure function of the input while the ring is within capacity;
//! timestamps, durations, and event *order* in the ring are wall-clock
//! and exempt. Span ids are per-trace sequential and allocation order
//! is scheduling-dependent, which is why shape comparisons go through
//! the canonical [`folded_snapshot`] rollup, never raw ids. Sampling
//! ([`sampled`]) keys off the deterministic request ordinal, never
//! wall-clock or RNG.
//!
//! **Cost.** Disabled (the default), the hook in [`crate::span::span`]
//! is one relaxed load. Enabled, span open is thread-local work plus
//! one relaxed `fetch_add`; the ring mutex is taken only at span close
//! and only on threads inside a recording context — "lock-minimal",
//! not lock-free, which is fine off the disabled path.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::span::STAGE_NAMES;

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

struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
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

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring::new(DEFAULT_CAPACITY)))
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Sample divisor: a request with ordinal `o` records iff
/// `o % divisor == 0`. 1 (the default) records everything.
static SAMPLE: AtomicU64 = AtomicU64::new(1);

/// Turns the trace recorder on or off process-wide. Off is the
/// default; while off, span open sees one relaxed load and no
/// thread-local access.
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

/// The current sampling divisor.
pub fn sample() -> u64 {
    SAMPLE.load(Ordering::Relaxed)
}

/// The deterministic sampling rule: trace `ordinal` records iff
/// `ordinal % divisor == 0`. Never wall-clock, never RNG, so which
/// requests are traced is reproducible from the request sequence
/// alone (the CLI root is ordinal 0 and therefore always sampled).
pub fn sampled(ordinal: u64) -> bool {
    ordinal % sample() == 0
}

/// Resizes the ring (dropping recorded events). Test/config use.
pub fn set_capacity(capacity: usize) {
    let mut r = ring().lock().expect("trace ring lock");
    *r = Ring::new(capacity);
}

/// Clears the ring and the dropped counter; capacity is kept.
pub fn reset() {
    let mut r = ring().lock().expect("trace ring lock");
    let capacity = r.capacity;
    *r = Ring::new(capacity);
}

/// Events overwritten since the last [`reset`].
pub fn dropped() -> u64 {
    ring().lock().expect("trace ring lock").dropped
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

/// One thread's view of a trace: the shared state plus the stack of
/// open span ids (the base element is the attach parent and is never
/// popped, so the stack is always non-empty).
struct LocalCtx {
    shared: Arc<TraceShared>,
    stack: Vec<u32>,
}

thread_local! {
    /// Innermost-last stack of active contexts on this thread (begin
    /// and attach push; their guards pop).
    static CTX: RefCell<Vec<LocalCtx>> = const { RefCell::new(Vec::new()) };
}

/// Opens a trace context on the current thread. `record` decides
/// whether events reach the ring (pass the sampling verdict); fault
/// marks are collected either way so access logs stay complete for
/// sampled-out requests. The guard closes the context on drop.
#[must_use]
pub fn begin(trace_id: u64, record: bool) -> TraceGuard {
    let shared = Arc::new(TraceShared {
        trace_id,
        started: Instant::now(),
        next_span: AtomicU32::new(1),
        record,
        marks: Mutex::new(Vec::new()),
    });
    CTX.with(|c| {
        c.borrow_mut().push(LocalCtx {
            shared: Arc::clone(&shared),
            stack: vec![0],
        })
    });
    TraceGuard { shared }
}

/// RAII guard from [`begin`]; dropping it closes the context.
#[derive(Debug)]
pub struct TraceGuard {
    shared: Arc<TraceShared>,
}

impl TraceGuard {
    /// Injected-fault sites observed in this trace so far (across all
    /// attached threads), in observation order.
    pub fn fault_marks(&self) -> Vec<&'static str> {
        self.shared.marks.lock().expect("trace marks lock").clone()
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// A capturable reference to the active trace, for handing to fan-out
/// workers. The parent is pinned at capture time, so every worker
/// span attaches under the same deterministic edge regardless of
/// scheduling.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    shared: Arc<TraceShared>,
    parent: u32,
}

impl TraceHandle {
    /// Joins the captured trace on the current thread. Spans opened
    /// while the guard lives record with the captured parent edge.
    #[must_use]
    pub fn attach(&self) -> AttachGuard {
        CTX.with(|c| {
            c.borrow_mut().push(LocalCtx {
                shared: Arc::clone(&self.shared),
                stack: vec![self.parent],
            })
        });
        AttachGuard
    }
}

/// RAII guard from [`TraceHandle::attach`]; detaches on drop.
#[derive(Debug)]
pub struct AttachGuard;

impl Drop for AttachGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The active trace on this thread, if any, with the innermost open
/// span pinned as the parent for attached work. `Some` even for
/// sampled-out traces so fault marks keep propagating.
pub fn handle() -> Option<TraceHandle> {
    CTX.with(|c| {
        c.borrow().last().map(|ctx| TraceHandle {
            shared: Arc::clone(&ctx.shared),
            parent: *ctx.stack.last().expect("trace stack is never empty"),
        })
    })
}

/// A span admitted to the active trace at open; closed by
/// `close_span` from the span guard's drop.
#[derive(Debug)]
pub struct OpenSpan {
    shared: Arc<TraceShared>,
    span_id: u32,
    parent_id: u32,
    start_ns: u64,
}

/// Hook for [`crate::span::span`]: admits the opening span to the
/// active trace, if the recorder is on and this thread is inside a
/// recording context. Cheap `None` otherwise.
pub(crate) fn open_span() -> Option<OpenSpan> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    CTX.with(|c| {
        let mut ctxs = c.borrow_mut();
        let ctx = ctxs.last_mut()?;
        if !ctx.shared.record {
            return None;
        }
        let span_id = ctx.shared.next_span.fetch_add(1, Ordering::Relaxed);
        let parent_id = *ctx.stack.last().expect("trace stack is never empty");
        ctx.stack.push(span_id);
        Some(OpenSpan {
            shared: Arc::clone(&ctx.shared),
            span_id,
            parent_id,
            start_ns: elapsed_ns(&ctx.shared.started),
        })
    })
}

/// Hook for the span guard's drop: pops the context stack and pushes
/// the completed span event to the ring.
pub(crate) fn close_span(open: OpenSpan, stage: usize, dur_ns: u64) {
    CTX.with(|c| {
        let mut ctxs = c.borrow_mut();
        if let Some(ctx) = ctxs.last_mut() {
            if Arc::ptr_eq(&ctx.shared, &open.shared) && ctx.stack.last() == Some(&open.span_id) {
                ctx.stack.pop();
            }
        }
    });
    ring().lock().expect("trace ring lock").push(TraceEvent {
        trace_id: open.shared.trace_id,
        span_id: open.span_id,
        parent_id: open.parent_id,
        name: STAGE_NAMES[stage],
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
        let parent_id = *ctx.stack.last().expect("trace stack is never empty");
        ring().lock().expect("trace ring lock").push(TraceEvent {
            trace_id: ctx.shared.trace_id,
            span_id,
            parent_id,
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
    let r = ring().lock().expect("trace ring lock");
    (r.snapshot(last), r.dropped)
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
    /// contract) while the ring stays within capacity.
    pub count: u64,
    /// Summed `dur − direct children's dur` — wall-clock, exempt.
    pub self_ns: u64,
}

/// Folds span events into per-path `(count, self-time)` rollups,
/// sorted by path. This is the canonical tree *shape*: ids and
/// timestamps are erased, so the output is comparable across thread
/// counts and cache modes.
pub fn folded(events: &[TraceEvent]) -> Vec<FoldedStack> {
    use std::collections::{BTreeMap, HashMap};
    let mut spans: HashMap<(u64, u32), usize> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.kind == EventKind::Span {
            spans.insert((e.trace_id, e.span_id), i);
        }
    }
    let mut child_ns: Vec<u64> = vec![0; events.len()];
    for e in events {
        if e.kind != EventKind::Span || e.parent_id == 0 {
            continue;
        }
        if let Some(&pi) = spans.get(&(e.trace_id, e.parent_id)) {
            child_ns[pi] = child_ns[pi].saturating_add(e.dur_ns);
        }
    }
    let mut acc: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.kind != EventKind::Span {
            continue;
        }
        let mut names = vec![e.name];
        let mut parent = e.parent_id;
        // Parent chains are acyclic (ids only grow), but cap the walk
        // so a ring that overwrote an ancestor cannot loop forever.
        for _ in 0..64 {
            if parent == 0 {
                break;
            }
            match spans.get(&(e.trace_id, parent)) {
                Some(&pi) => {
                    names.push(events[pi].name);
                    parent = events[pi].parent_id;
                }
                None => {
                    // Ancestor evicted at capacity — flag the orphan
                    // rather than silently promoting it to a root.
                    names.push("…");
                    break;
                }
            }
        }
        names.reverse();
        let path = names.join(";");
        let slot = acc.entry(path).or_insert((0, 0));
        slot.0 += 1;
        slot.1 = slot.1.saturating_add(e.dur_ns.saturating_sub(child_ns[i]));
    }
    acc.into_iter()
        .map(|(stack, (count, self_ns))| FoldedStack {
            stack,
            count,
            self_ns,
        })
        .collect()
}

/// [`folded`] over the whole ring.
pub fn folded_snapshot() -> Vec<FoldedStack> {
    folded(&events_snapshot(None).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    // Recorder state is process-global, so everything runs as one test
    // body, serialized with the span tests that read the flat counts.
    #[test]
    fn recorder_contexts_ring_and_folded() {
        let _serial = crate::test_lock();
        // Disabled recorder: spans record nothing even in a context.
        set_enabled(false);
        reset();
        {
            let _t = begin(1, true);
            let _s = span::span(span::GRID_KERNEL);
        }
        assert!(events_snapshot(None).0.is_empty());

        // Enabled + context: nested spans land with parent links.
        set_enabled(true);
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

        // Folded rollup erases ids into canonical paths.
        let folded = folded_snapshot();
        let paths: Vec<(&str, u64)> = folded.iter().map(|f| (f.stack.as_str(), f.count)).collect();
        assert_eq!(
            paths,
            vec![
                ("fused_reduction", 1),
                ("sweep_chunk", 1),
                ("sweep_chunk;fused_reduction", 1)
            ]
        );

        // Spans without a context stay out of the ring.
        reset();
        {
            let _s = span::span(span::GRID_KERNEL);
        }
        assert!(events_snapshot(None).0.is_empty());

        // Sampled-out contexts record no events but still collect
        // fault marks for the access log.
        {
            let t = begin(3, false);
            let _s = span::span(span::GRID_KERNEL);
            mark("handler_panic");
            assert_eq!(t.fault_marks(), vec!["handler_panic"]);
        }
        assert!(events_snapshot(None).0.is_empty());

        // Recording contexts get the mark as an instant event, and
        // attached handles join with the captured parent edge.
        {
            let t = begin(9, true);
            let root = span::span(span::SWEEP_CHUNK);
            let handle = handle().expect("context active");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _a = handle.attach();
                    let _w = span::span(span::WORKLOAD_SIM);
                    mark("simcache_poison");
                });
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

        // Chrome export is well-formed and carries both event kinds.
        let json = chrome_trace_json(None);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"workload_sim\""));

        // The ring is bounded: at capacity it overwrites the oldest
        // events and counts the drops instead of growing.
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
        assert_eq!(self::dropped(), 6);
        // `last=N` trims from the oldest side.
        assert_eq!(events_snapshot(Some(2)).0.len(), 2);

        // Sampling is a pure function of the ordinal.
        set_sample(4);
        assert!(sampled(0));
        assert!(!sampled(3));
        assert!(sampled(8));
        set_sample(0);
        assert_eq!(sample(), 1);

        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
    }
}
