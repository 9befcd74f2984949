//! A minimal, vendored stand-in for `rayon` (offline build shim) with
//! **real multi-threaded execution**.
//!
//! Parallel operations split their index range into contiguous chunks,
//! hand the chunks to scoped worker threads through a shared claim
//! counter (dynamic load balancing — an idle worker "steals" the next
//! unclaimed chunk), and merge per-chunk results **in ascending index
//! order**. Because every item is computed by a pure function of its
//! index and the merge order is fixed, results are bit-identical to a
//! sequential run at every thread count — the workspace's determinism
//! contract (see `docs/CONCURRENCY.md` at the repo root).
//!
//! Thread-count resolution, first match wins:
//!
//! 1. an enclosing [`ThreadPool::install`] (per-thread override),
//! 2. a pool built with [`ThreadPoolBuilder::build_global`],
//! 3. the `THIRSTYFLOPS_THREADS` environment variable,
//! 4. the `RAYON_NUM_THREADS` environment variable,
//! 5. [`std::thread::available_parallelism`].
//!
//! With one worker every operation runs inline on the calling thread —
//! no threads are spawned, so single-threaded runs pay no overhead.
//!
//! Fidelity gaps vs. real rayon (recorded in `shims/README.md`): no
//! adaptive splitting (chunk granularity is fixed at ~4 chunks per
//! worker), no persistent global pool (workers are scoped threads
//! spawned per top-level operation), and no nested-pool tuning (a
//! parallel operation started *from inside* a worker thread falls back
//! to the global/default thread count rather than the enclosing pool's).

use std::cell::Cell;
use std::env;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallelIterator, ParallelIterator, ParallelSliceExt};
}

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

/// The process-wide default worker count, set at most once (by
/// [`ThreadPoolBuilder::build_global`] or lazily from the environment).
static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Worker count installed on this thread by [`ThreadPool::install`];
    /// 0 means "no override".
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };

    /// This thread's worker index while it runs items of a multi-worker
    /// operation ([`current_thread_index`]).
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's worker index while it runs items of a parallel
/// operation that uses more than one worker (the caller is worker 0);
/// `None` elsewhere, including inline single-worker runs. Mirrors
/// `rayon::current_thread_index`: code that would fork again can ask
/// whether an enclosing fan-out already keeps the workers busy.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(Cell::get)
}

/// Runs `f` as worker `index`, restoring the previous index afterwards
/// (also when `f` panics).
fn as_worker<R>(index: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_INDEX.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(WORKER_INDEX.with(|w| w.replace(Some(index))));
    f()
}

/// Reads a positive integer from an environment variable.
fn env_threads(var: &str) -> Option<usize> {
    env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The environment fallback chain shared by the global default and
/// auto-configured pool builders.
fn env_or_hardware_threads() -> usize {
    env_threads("THIRSTYFLOPS_THREADS")
        .or_else(|| env_threads("RAYON_NUM_THREADS"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process default (env vars, then hardware parallelism).
fn default_threads() -> usize {
    *GLOBAL_THREADS.get_or_init(env_or_hardware_threads)
}

/// The worker count a parallel operation started on this thread will use.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(Cell::get);
    if installed > 0 {
        installed
    } else {
        default_threads()
    }
}

// ---------------------------------------------------------------------------
// The chunked scoped executor
// ---------------------------------------------------------------------------

/// Runs `produce(i)` for every `i in 0..len` across the current worker
/// count and returns the results **in index order**, regardless of which
/// worker computed what. The workhorse behind `collect`/`for_each`/`sum`.
fn run_indexed<R, F>(len: usize, threads: usize, produce: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, len.max(1));
    if threads <= 1 || len <= 1 {
        return (0..len).map(produce).collect();
    }

    // ~4 chunks per worker: coarse enough to amortize claim/send
    // overhead, fine enough that a slow chunk doesn't serialize the tail.
    let chunk = len.div_ceil(threads * 4).max(1);
    let n_chunks = len.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<R>)>();

    let drain_chunks = |tx: mpsc::Sender<(usize, Vec<R>)>| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        let items: Vec<R> = (lo..hi).map(&produce).collect();
        if tx.send((c, items)).is_err() {
            break;
        }
    };
    std::thread::scope(|scope| {
        // The calling thread is worker 0 (so `threads` configured means
        // `threads` running, and one fewer spawn per operation); panics
        // from the spawned workers propagate when the scope joins them.
        for worker in 1..threads {
            let tx = tx.clone();
            let drain_chunks = &drain_chunks;
            scope.spawn(move || as_worker(worker, || drain_chunks(tx)));
        }
        as_worker(0, || drain_chunks(tx.clone()));
    });
    drop(tx);

    let mut parts: Vec<Option<Vec<R>>> = (0..n_chunks).map(|_| None).collect();
    for (c, items) in rx {
        parts[c] = Some(items);
    }
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part.expect("every claimed chunk is delivered"));
    }
    out
}

/// Runs two closures, potentially on two threads (mirrors `rayon::join`).
///
/// `oper_a` always runs on the calling thread; with more than one worker
/// configured, `oper_b` runs concurrently on a scoped thread. Both
/// results are always returned as `(ra, rb)`, so the output is identical
/// at every thread count.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        (ra, rb)
    } else {
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| as_worker(1, oper_b));
            let ra = as_worker(0, oper_a);
            let rb = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (ra, rb)
        })
    }
}

// ---------------------------------------------------------------------------
// Parallel iterators
// ---------------------------------------------------------------------------

/// A parallel iterator over exactly-indexed items (every iterator this
/// shim produces knows its length, like rayon's `IndexedParallelIterator`).
///
/// Implementors supply random access (`par_len` + `par_index`); the
/// provided combinators (`map`, `zip`, `collect`, `for_each`, `sum`)
/// execute across the current thread count with deterministic,
/// index-ordered results.
pub trait ParallelIterator: Sized + Sync {
    /// The produced item type.
    type Item: Send;

    /// Exact number of items.
    fn par_len(&self) -> usize;

    /// Produces item `i` (must be a pure function of `i` for the
    /// determinism contract to hold).
    fn par_index(&self, i: usize) -> Self::Item;

    /// Maps each item through `f` (applied on the worker threads).
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Pairs items positionally with `other` (length = the shorter side).
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Executes in parallel and gathers the items in index order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Executes `f` on every item in parallel (no output).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _: Vec<()> = run_indexed(self.par_len(), current_num_threads(), |i| {
            f(self.par_index(i))
        });
    }

    /// Sums the items; the reduction runs in ascending index order, so
    /// floating-point results match a sequential sum bit for bit.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item>,
    {
        run_indexed(self.par_len(), current_num_threads(), |i| self.par_index(i))
            .into_iter()
            .sum()
    }
}

/// Conversion from a parallel iterator (mirrors
/// `rayon::iter::FromParallelIterator`).
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds `Self` from the iterator's items in index order.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        run_indexed(iter.par_len(), current_num_threads(), |i| iter.par_index(i))
    }
}

/// Borrowing parallel iterator over a slice (`par_iter()`).
#[derive(Debug, Clone, Copy)]
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn par_index(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Parallel iterator over contiguous sub-slices (`par_chunks(n)`).
#[derive(Debug, Clone, Copy)]
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn par_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn par_index(&self, i: usize) -> &'a [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.slice.len());
        &self.slice[lo..hi]
    }
}

/// `map` adapter.
#[derive(Debug, Clone, Copy)]
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync,
    R: Send,
{
    type Item = R;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn par_index(&self, i: usize) -> R {
        (self.f)(self.base.par_index(i))
    }
}

/// `zip` adapter.
#[derive(Debug, Clone, Copy)]
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);

    fn par_len(&self) -> usize {
        self.a.par_len().min(self.b.par_len())
    }

    fn par_index(&self, i: usize) -> (A::Item, B::Item) {
        (self.a.par_index(i), self.b.par_index(i))
    }
}

/// Adds `par_iter`/`par_chunks` to slices and anything that derefs to a
/// slice (`Vec`, arrays).
pub trait ParallelSliceExt<T: Sync> {
    /// Parallel iterator over shared references to the items.
    fn par_iter(&self) -> ParIter<'_, T>;

    /// Parallel iterator over contiguous chunks of at most `chunk_size`
    /// items (the last chunk may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSliceExt<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { slice: self }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunks {
            slice: self,
            size: chunk_size,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread pools
// ---------------------------------------------------------------------------

/// Builder for a thread pool (mirrors `rayon::ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with default settings (auto-detected workers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a worker count; 0 means auto-detect.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds a pool handle. Workers are scoped threads spawned per
    /// operation, so building never allocates OS resources and never
    /// fails.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.resolved(),
        })
    }

    /// Installs this configuration as the process-wide default.
    ///
    /// Fails (like rayon) if the default was already initialized — by an
    /// earlier `build_global` or by any parallel operation that already
    /// resolved the environment defaults.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS
            .set(self.resolved())
            .map_err(|_| ThreadPoolBuildError(()))
    }

    fn resolved(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            env_or_hardware_threads()
        }
    }
}

/// A pool handle: a worker count that [`ThreadPool::install`] applies to
/// every parallel operation started inside it.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's worker count installed for all nested
    /// parallel operations on the calling thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        INSTALLED_THREADS.with(|cell| {
            let previous = cell.replace(self.num_threads);
            let guard = InstallGuard { previous };
            let result = op();
            drop(guard);
            result
        })
    }

    /// This pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Restores the caller's thread-count override even if `op` panics.
struct InstallGuard {
    previous: usize,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED_THREADS.with(|cell| cell.set(self.previous));
    }
}

/// Error building a thread pool (produced only by a repeated
/// [`ThreadPoolBuilder::build_global`]).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn map_collect_preserves_index_order_at_every_thread_count() {
        let input: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = input.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 16] {
            let got: Vec<u64> =
                pool(threads).install(|| input.par_iter().map(|&x| x * x).collect());
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn float_sum_is_bit_identical_across_thread_counts() {
        let input: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e-3).collect();
        let seq: f64 = input.iter().sum();
        for threads in [1, 4, 9] {
            let par: f64 = pool(threads).install(|| input.par_iter().sum());
            assert_eq!(seq.to_bits(), par.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn zip_pairs_positionally() {
        let a: Vec<i32> = (0..257).collect();
        let b: Vec<i32> = (0..257).rev().collect();
        let got: Vec<i32> =
            pool(4).install(|| a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect());
        assert!(got.iter().all(|&s| s == 256), "{got:?}");
        assert_eq!(got.len(), 257);
    }

    #[test]
    fn worker_index_is_set_only_inside_multi_worker_operations() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        assert_eq!(current_thread_index(), None);
        let inside: Vec<Option<usize>> = pool.install(|| {
            [0, 1, 2]
                .par_iter()
                .map(|_| current_thread_index())
                .collect()
        });
        assert!(
            inside.iter().all(|i| matches!(i, Some(0 | 1))),
            "{inside:?}"
        );
        assert_eq!(current_thread_index(), None, "restored after the operation");
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let inline: Vec<Option<usize>> =
            single.install(|| [0, 1].par_iter().map(|_| current_thread_index()).collect());
        assert_eq!(inline, [None, None], "an inline run is not a fan-out");
    }

    #[test]
    fn par_chunks_covers_the_slice_in_order() {
        let input: Vec<u32> = (0..103).collect();
        let sums: Vec<u32> = pool(4).install(|| {
            input
                .par_chunks(10)
                .map(|chunk| chunk.iter().sum::<u32>())
                .collect()
        });
        assert_eq!(sums.len(), 11);
        assert_eq!(sums.iter().sum::<u32>(), input.iter().sum::<u32>());
        // First chunk is 0+1+..+9, deterministically in slot 0.
        assert_eq!(sums[0], 45);
        assert_eq!(*sums.last().unwrap(), 102 + 101 + 100);
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let (a, b) = pool(2).install(|| join(|| 2 + 2, || "b"));
        assert_eq!((a, b), (4, "b"));
        let (a, b) = pool(1).install(|| join(|| 2 + 2, || "b"));
        assert_eq!((a, b), (4, "b"));
    }

    #[test]
    fn install_overrides_nest_and_restore() {
        pool(7).install(|| {
            assert_eq!(current_num_threads(), 7);
            pool(2).install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 7);
        });
    }

    #[test]
    fn for_each_visits_every_item() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = AtomicU64::new(0);
        let input: Vec<u64> = (1..=100).collect();
        pool(4).install(|| {
            input.par_iter().for_each(|&x| {
                hits.fetch_add(x, Ordering::Relaxed);
            })
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let empty: Vec<u8> = Vec::new();
        let got: Vec<u8> = pool(8).install(|| empty.par_iter().map(|&x| x).collect());
        assert!(got.is_empty());
        let one = [42u8];
        let got: Vec<u8> = pool(8).install(|| one.par_iter().map(|&x| x + 1).collect());
        assert_eq!(got, vec![43]);
    }
}
