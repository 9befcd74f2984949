//! The process-wide memoized simulation substrate.
//!
//! Every footprint report, figure, scenario sweep, and cold HTTP request
//! bottoms out in [`SystemYear::simulate`] — an 8760-hour telemetry
//! simulation assembled from three sub-simulations, each memoized here
//! on exactly what it reads (no layer caches whole years):
//!
//! * the workload year (jobs → utilization → IT energy) depends only on
//!   `WorkloadKey`: the seed and the few spec fields the workload
//!   reads. The K-lane kernel ([`crate::batch`]) reads the same layer;
//! * the grid year ([`GridRegion::simulate_year`]) depends only on the
//!   region preset;
//! * the climate → WUE series depends only on the
//!   [`ClimatePreset`].
//!
//! Each layer is a sharded process-wide cache:
//!
//! * **Single-flight first touch** — concurrent misses on one key block
//!   on a shared [`OnceLock`] slot, so each key is computed exactly once
//!   no matter how many threads race (see the unit test below and
//!   `tests/simcache.rs`).
//! * **Determinism** — a cache hit returns a value produced by the same
//!   pure function a miss would run, so every lookup is bit-identical to
//!   the [`SystemYear::simulate_uncached`] oracle at every thread count
//!   (`tests/simcache.rs`, `docs/CONCURRENCY.md`).
//! * **Observability** — per-layer hit/miss/entry/eviction counters,
//!   exposed via [`stats`] and served at `GET /v1/cache/stats`.
//!
//! `SystemYear::simulate_spec` and the K-lane kernel read the layers
//! through one resolver, `resolve`: each distinct key of a call is
//! looked up once, warm entries answer inline, and the cold rest compute
//! concurrently in one fan-out.
//!
//! The workload layer is bounded (LRU on whole entries) because seeds
//! are caller-controlled and therefore unbounded; the grid and WUE
//! layers are keyed by small closed enums and need no bound.
//!
//! [`SystemYear::simulate`]: crate::SystemYear::simulate
//! [`SystemYear::simulate_uncached`]: crate::SystemYear::simulate_uncached
//! [`GridRegion::simulate_year`]: thirstyflops_grid::GridRegion::simulate_year

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use thirstyflops_catalog::SystemSpec;
use thirstyflops_grid::{GridRegion, GridYear, RegionId};
use thirstyflops_obs::span;
use thirstyflops_obs::trace::propagate;
use thirstyflops_obs::Counter;
use thirstyflops_timeseries::HourlySeries;
use thirstyflops_weather::ClimatePreset;

use crate::simulate::{workload_series, WorkloadKey};

/// `DefaultHasher::default()` is SipHash with fixed keys — deterministic
/// across processes, unlike `RandomState`.
pub(crate) type FixedState = BuildHasherDefault<DefaultHasher>;

/// One cache entry: the shared compute slot plus its LRU/TTL stamps.
#[derive(Debug)]
struct Slot<V> {
    /// Single-flight cell: the first toucher computes into it, racing
    /// threads block on `get_or_init` and share the one `Arc`.
    cell: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
    /// When the slot was created, for the optional TTL. In-flight slots
    /// never expire (their computing thread holds the cell).
    inserted: Instant,
}

/// A sharded, single-flight memo cache from `K` to `Arc<V>`.
///
/// The compute closure runs outside the shard lock (only the slot
/// lookup/insert holds it), so a slow simulation never blocks unrelated
/// keys in the same shard; concurrent misses on the *same* key block on
/// the slot's `OnceLock` and share the winner's value.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<HashMap<K, Slot<V>, FixedState>>>,
    /// Per-shard entry bound; `0` = unbounded.
    capacity_per_shard: usize,
    /// Optional time-to-live; an expired completed slot is dropped on
    /// lookup (counted as an eviction) and recomputed.
    ttl: Option<Duration>,
    tick: AtomicU64,
    /// Hit/miss/eviction counters. Detached by default; the global
    /// layers swap in registry-backed handles via
    /// [`with_counters`](MemoCache::with_counters) so the same atomics
    /// feed both `stats()` and `/v1/metrics`.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// Counters for one cache layer, as served by `GET /v1/cache/stats`.
///
/// `hits` counts lookups that found an existing slot — including racers
/// that blocked on an in-flight first touch (they did not compute).
/// `misses` counts first touches, i.e. actual computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LayerStats {
    /// Lookups served from an existing entry (no simulation ran).
    pub hits: u64,
    /// First touches that computed and inserted the value.
    pub misses: u64,
    /// Live entries across all shards.
    pub entries: u64,
    /// Entries dropped by the LRU bound (0 for unbounded layers).
    pub evictions: u64,
}

impl<K: Eq + Hash + Clone, V> MemoCache<K, V> {
    /// A cache with `shards` independent locks (clamped to ≥ 1) and an
    /// approximate `capacity` bound spread across them (`0` =
    /// unbounded). The real bound is per shard, so the total can sit
    /// slightly under `capacity` when keys hash unevenly.
    pub fn new(shards: usize, capacity: usize) -> MemoCache<K, V> {
        Self::with_ttl(shards, capacity, None)
    }

    /// Like [`new`](MemoCache::new) with an additional time-to-live:
    /// a completed entry older than `ttl` is dropped on lookup (counted
    /// as an eviction) and recomputed. In-flight entries never expire.
    /// `serve::ResultCache` builds on this for its `--cache-ttl` flag.
    pub fn with_ttl(shards: usize, capacity: usize, ttl: Option<Duration>) -> MemoCache<K, V> {
        let shards = shards.max(1);
        MemoCache {
            capacity_per_shard: if capacity == 0 {
                0
            } else {
                capacity.div_ceil(shards).max(1)
            },
            ttl,
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            tick: AtomicU64::new(0),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions: Counter::detached(),
        }
    }

    /// Replaces the detached counters with caller-provided handles —
    /// the global layers pass registry-backed counters so one set of
    /// atomics feeds `stats()`, `/v1/cache/stats`, and `/v1/metrics`.
    /// Instance-local caches keep the detached defaults.
    pub fn with_counters(mut self, hits: Counter, misses: Counter, evictions: Counter) -> Self {
        self.hits = hits;
        self.misses = misses;
        self.evictions = evictions;
        self
    }

    /// The effective total entry bound: the configured capacity rounded
    /// up to a full shard multiple (`0` = unbounded).
    pub fn capacity(&self) -> u64 {
        (self.capacity_per_shard * self.shards.len()) as u64
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> u64 {
        self.shards.len() as u64
    }

    /// The configured time-to-live, if any.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Slot<V>, FixedState>> {
        let mut hasher = DefaultHasher::default();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Returns the cached value for `key`, or computes, caches, and
    /// returns it. Single-flight: under concurrent misses on one key,
    /// exactly one caller runs `compute`; the rest block and share the
    /// resulting `Arc`.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let cell = {
            let mut map = self.shard(&key).lock().expect("simcache shard poisoned");
            if let (Some(ttl), Some(slot)) = (self.ttl, map.get(&key)) {
                // An expired *completed* entry is dropped here and the
                // lookup falls through to the miss path below; in-flight
                // slots are left alone (their computing thread holds the
                // cell and will complete it).
                if slot.cell.get().is_some() && slot.inserted.elapsed() >= ttl {
                    map.remove(&key);
                    self.evictions.inc();
                }
            }
            if let Some(slot) = map.get_mut(&key) {
                slot.last_used = tick;
                self.hits.inc();
                Arc::clone(&slot.cell)
            } else {
                self.misses.inc();
                if self.capacity_per_shard > 0 {
                    // Evict least-recently-used *completed* entries until
                    // the insert below fits the bound; in-flight slots are
                    // never dropped from under their computing thread, so
                    // a burst of concurrent cold keys can transiently
                    // overfill a shard — the loop (not a single eviction)
                    // is what drains it back under the bound afterwards.
                    while map.len() >= self.capacity_per_shard {
                        let victim = map
                            .iter()
                            .filter(|(_, s)| s.cell.get().is_some())
                            .min_by_key(|(_, s)| s.last_used)
                            .map(|(k, _)| k.clone());
                        match victim {
                            Some(victim) => {
                                map.remove(&victim);
                                self.evictions.inc();
                            }
                            None => break,
                        }
                    }
                }
                let cell = Arc::new(OnceLock::new());
                map.insert(
                    key,
                    Slot {
                        cell: Arc::clone(&cell),
                        last_used: tick,
                        inserted: Instant::now(),
                    },
                );
                cell
            }
        };
        Arc::clone(cell.get_or_init(|| Arc::new(compute())))
    }

    /// The completed value for `key`, counting a hit, or `None`
    /// (counting nothing) when the key is absent, still being computed
    /// or expired. [`resolve`] answers warm keys through it, so a warm
    /// lookup never blocks on another thread's compute; a `None` goes
    /// on to [`get_or_compute`](MemoCache::get_or_compute), which counts
    /// it.
    pub(crate) fn get_ready(&self, key: &K) -> Option<Arc<V>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.shard(key).lock().expect("simcache shard poisoned");
        let slot = map.get_mut(key)?;
        if self.ttl.is_some_and(|ttl| slot.inserted.elapsed() >= ttl) {
            return None;
        }
        let value = Arc::clone(slot.cell.get()?);
        slot.last_used = tick;
        self.hits.inc();
        Some(value)
    }

    /// Current counters.
    pub fn stats(&self) -> LayerStats {
        LayerStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("simcache shard poisoned").len() as u64)
                .sum(),
            evictions: self.evictions.get(),
        }
    }
}

/// Counters for every simulation-cache layer (`GET /v1/cache/stats`,
/// `docs/PERFORMANCE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimCacheStats {
    /// Workload years `(utilization, energy)` keyed by `WorkloadKey`:
    /// one lookup per demanded year and per K-lane kernel lane.
    pub system_years: LayerStats,
    /// `GridYear`s keyed by region preset.
    pub grid_years: LayerStats,
    /// Climate → WUE hourly series keyed by climate preset.
    pub wue_series: LayerStats,
}

/// Registry-backed hit/miss/eviction counters for one global layer,
/// labeled `{cache="<layer>"}` (`docs/OBSERVABILITY.md`).
pub(crate) fn layer_counters(layer: &'static str) -> (Counter, Counter, Counter) {
    let registry = thirstyflops_obs::registry::global();
    let labels = [("cache", layer)];
    (
        registry.counter_labeled(
            "thirstyflops_simcache_hits_total",
            &labels,
            "Simulation-cache lookups served from an existing entry.",
        ),
        registry.counter_labeled(
            "thirstyflops_simcache_misses_total",
            &labels,
            "Simulation-cache first touches that computed the value.",
        ),
        registry.counter_labeled(
            "thirstyflops_simcache_evictions_total",
            &labels,
            "Simulation-cache entries dropped by LRU bound or TTL.",
        ),
    )
}

/// A workload year: hourly utilization and IT energy.
type Workload = (HourlySeries, HourlySeries);

fn workload_cache() -> &'static MemoCache<WorkloadKey, Workload> {
    static CACHE: OnceLock<MemoCache<WorkloadKey, Workload>> = OnceLock::new();
    // ~140 KB per workload year ⇒ the 256-entry bound caps the layer
    // near 36 MB even under an adversarial seed sweep.
    CACHE.get_or_init(|| {
        let (hits, misses, evictions) = layer_counters("system_years");
        MemoCache::new(8, 256).with_counters(hits, misses, evictions)
    })
}

fn grid_cache() -> &'static MemoCache<RegionId, GridYear> {
    static CACHE: OnceLock<MemoCache<RegionId, GridYear>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let (hits, misses, evictions) = layer_counters("grid_years");
        MemoCache::new(2, 0).with_counters(hits, misses, evictions)
    })
}

fn wue_cache() -> &'static MemoCache<ClimatePreset, HourlySeries> {
    static CACHE: OnceLock<MemoCache<ClimatePreset, HourlySeries>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let (hits, misses, evictions) = layer_counters("wue_series");
        MemoCache::new(2, 0).with_counters(hits, misses, evictions)
    })
}

/// The memoized grid year for a region preset. Seed-independent: every
/// system in `region` shares one computation.
pub fn grid_year(region: RegionId) -> Arc<GridYear> {
    // Every memo lookup opens `CACHE_LOOKUP`, so a compute nests under
    // the same path whichever racing caller runs it.
    let _span = span::span(span::CACHE_LOOKUP);
    grid_cache().get_or_compute(region, || grid_compute(region))
}

/// A grid year's compute, under a compute span like `WORKLOAD_SIM`:
/// hits never open it. `SystemYear::simulate_uncached` calls it too.
pub(crate) fn grid_compute(region: RegionId) -> GridYear {
    let _span = span::span(span::GRID_KERNEL);
    GridRegion::preset(region).simulate_year()
}

/// A WUE series' compute: the climate year, then the WUE map.
pub(crate) fn wue_compute(preset: ClimatePreset) -> HourlySeries {
    let _span = span::span(span::WUE_SERIES);
    preset.wue_model().hourly_series(&preset.generate())
}

/// The memo-layer values one lane reads.
pub(crate) struct Parts {
    /// The workload year of the lane's `(spec, seed)`.
    pub(crate) workload: Arc<Workload>,
    /// The WUE series of the lane's climate.
    pub(crate) wue: Arc<HourlySeries>,
    /// The grid year of the lane's region.
    pub(crate) grid: Arc<GridYear>,
    /// The lane's workload, climate and region slots in its [`resolve`]
    /// call: two lanes of one call read the same series iff their slots
    /// are equal.
    pub(crate) slots: [usize; 3],
}

/// One layer's distinct keys in a [`resolve`] call, in first-appearance
/// order, each with the value it resolves to.
struct Distinct<K, D, V> {
    slots: HashMap<K, usize, FixedState>,
    demands: Vec<D>,
    values: Vec<OnceLock<Arc<V>>>,
}

impl<K: Eq + Hash, D, V> Distinct<K, D, V> {
    fn new() -> Self {
        Distinct {
            slots: HashMap::default(),
            demands: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The slot of `key`, adding `demand` on its first appearance.
    fn slot(&mut self, key: K, demand: D) -> usize {
        let next = self.demands.len();
        *self.slots.entry(key).or_insert_with(|| {
            self.demands.push(demand);
            self.values.push(OnceLock::new());
            next
        })
    }

    /// Records `slot`'s value; each slot is filled exactly once.
    fn fill(&self, slot: usize, value: Arc<V>) {
        let filled = self.values[slot].set(value);
        debug_assert!(filled.is_ok(), "slot {slot} filled twice");
    }

    fn value(&self, slot: usize) -> Arc<V> {
        Arc::clone(self.values[slot].get().expect("every slot resolves"))
    }
}

/// A lookup [`resolve`] could not answer inline, by layer and slot.
enum Cold<'a> {
    /// `poisoned`: a fired `simcache_poison` fault, so the year is
    /// recomputed without touching the cache.
    Workload {
        slot: usize,
        spec: &'a SystemSpec,
        seed: u64,
        poisoned: bool,
    },
    Wue {
        slot: usize,
        preset: ClimatePreset,
    },
    Grid {
        slot: usize,
        region: RegionId,
    },
}

/// The memoized workload year, WUE series and grid year of every
/// `(spec, seed)` lane: the one lookup path of
/// `SystemYear::simulate_spec` and the K-lane kernel.
///
/// Each distinct workload key, climate and region of the call is looked
/// up once. A warm entry answers inline on the calling thread, so a warm
/// call never forks. The cold rest compute in one fan-out, the workload
/// first (the longest compute), so a cold lane's workload year, climate
/// and grid year build concurrently — unless the call already runs
/// inside a fan-out, whose workers are busy: then they compute in turn
/// on the calling worker. One `CACHE_LOOKUP` span covers the
/// call; the computes nest in it as `WORKLOAD_SIM`, `WUE_SERIES` and
/// `GRID_KERNEL`, and its self time is lookup plus any wait on another
/// thread's compute of the same key.
pub(crate) fn resolve(lanes: &[(&SystemSpec, u64)]) -> Vec<Parts> {
    let _span = span::span(span::CACHE_LOOKUP);
    let mut workloads = Distinct::new();
    let mut climates = Distinct::new();
    let mut regions = Distinct::new();
    let slots: Vec<[usize; 3]> = lanes
        .iter()
        .map(|&(spec, seed)| {
            [
                workloads.slot(WorkloadKey::new(spec, seed), (spec, seed)),
                climates.slot(spec.climate, spec.climate),
                regions.slot(spec.region, spec.region),
            ]
        })
        .collect();

    let mut cold = Vec::new();
    for (slot, &(spec, seed)) in workloads.demands.iter().enumerate() {
        // Injected cache poisoning (`docs/ROBUSTNESS.md`): a fired
        // `simcache_poison` fault forces this lookup down the uncached
        // recompute path — exercising the miss machinery under load
        // without ever storing a wrong value. Because hits and misses
        // return byte-identical series (the determinism contract above),
        // poisoning must never change any response body; chaos replays
        // verify that. The one site covers both the scalar year and the
        // K-lane kernel.
        let poisoned = thirstyflops_faults::global_simcache_poisoned();
        let warm = if poisoned {
            None
        } else {
            workload_cache().get_ready(&WorkloadKey::new(spec, seed))
        };
        match warm {
            Some(value) => workloads.fill(slot, value),
            None => cold.push(Cold::Workload {
                slot,
                spec,
                seed,
                poisoned,
            }),
        }
    }
    for (slot, &preset) in climates.demands.iter().enumerate() {
        match wue_cache().get_ready(&preset) {
            Some(value) => climates.fill(slot, value),
            None => cold.push(Cold::Wue { slot, preset }),
        }
    }
    for (slot, &region) in regions.demands.iter().enumerate() {
        match grid_cache().get_ready(&region) {
            Some(value) => regions.fill(slot, value),
            None => cold.push(Cold::Grid { slot, region }),
        }
    }
    let compute = |lookup: &Cold<'_>| match *lookup {
        Cold::Workload {
            slot,
            spec,
            seed,
            poisoned,
        } => {
            let value = if poisoned {
                Arc::new(workload_series(spec, seed))
            } else {
                workload_cache()
                    .get_or_compute(WorkloadKey::new(spec, seed), || workload_series(spec, seed))
            };
            workloads.fill(slot, value);
        }
        Cold::Wue { slot, preset } => {
            let value = wue_cache().get_or_compute(preset, || wue_compute(preset));
            climates.fill(slot, value);
        }
        Cold::Grid { slot, region } => {
            let value = grid_cache().get_or_compute(region, || grid_compute(region));
            regions.fill(slot, value);
        }
    };
    // A one-item fan-out runs on the calling thread, so only two or
    // more cold lookups fork, and only outside an enclosing fan-out:
    // inside one (a cold `rank` resolves each system's year in its own
    // task) the workers are already busy, and a fork would only take
    // cores from the enclosing fan-out's longest task.
    if rayon::current_thread_index().is_some() {
        cold.iter().for_each(compute);
    } else {
        cold.par_iter().for_each(propagate(compute));
    }

    slots
        .into_iter()
        .map(|slots| {
            let [workload, climate, region] = slots;
            Parts {
                workload: workloads.value(workload),
                wue: climates.value(climate),
                grid: regions.value(region),
                slots,
            }
        })
        .collect()
}

/// Counters for all layers.
pub fn stats() -> SimCacheStats {
    SimCacheStats {
        system_years: workload_cache().stats(),
        grid_years: grid_cache().stats(),
        wue_series: wue_cache().stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn repeat_lookup_is_a_hit_and_shares_the_arc() {
        let cache: MemoCache<u32, String> = MemoCache::new(4, 0);
        let first = cache.get_or_compute(7, || "value".to_string());
        let second = cache.get_or_compute(7, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn racing_first_touches_compute_exactly_once() {
        let cache: MemoCache<u32, u64> = MemoCache::new(4, 0);
        let computed = AtomicUsize::new(0);
        let values: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        cache.get_or_compute(42, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so late arrivals
                            // genuinely block on the in-flight compute.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            4242
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single-flight");
        assert!(values.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn lru_bound_evicts_the_least_recent_entry() {
        // capacity 3 over 1 shard ⇒ per-shard bound 3.
        let cache: MemoCache<u32, u32> = MemoCache::new(1, 3);
        for k in 0..3 {
            cache.get_or_compute(k, move || k);
        }
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_compute(0, || unreachable!("hit"));
        cache.get_or_compute(3, || 3);
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 1);
        // 1 was evicted and recomputes; 0 and 2 survived.
        let recomputed = AtomicUsize::new(0);
        cache.get_or_compute(1, || {
            recomputed.fetch_add(1, Ordering::SeqCst);
            1
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1);
        cache.get_or_compute(0, || unreachable!("0 was touched, must survive"));
    }

    #[test]
    fn ttl_expires_completed_entries_as_evictions() {
        let cache: MemoCache<u32, u32> = MemoCache::with_ttl(1, 0, Some(Duration::from_millis(30)));
        cache.get_or_compute(1, || 1);
        cache.get_or_compute(1, || unreachable!("fresh entry is a hit"));
        std::thread::sleep(Duration::from_millis(60));
        let recomputed = AtomicUsize::new(0);
        cache.get_or_compute(1, || {
            recomputed.fetch_add(1, Ordering::SeqCst);
            1
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1, "expired ⇒ recompute");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 1, "the recomputed entry is live again");
    }

    #[test]
    fn overfilled_shard_drains_back_under_the_bound() {
        // In-flight slots are never evicted, so a burst of concurrent
        // cold keys can transiently exceed the bound; the next miss must
        // drain the shard back under it (eviction loops, it doesn't stop
        // after one victim).
        let cache: MemoCache<u32, u32> = MemoCache::new(1, 2);
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for k in 0..3u32 {
                let barrier = &barrier;
                let cache = &cache;
                scope.spawn(move || {
                    cache.get_or_compute(k, move || {
                        // Hold all three slots in flight at once.
                        barrier.wait();
                        k
                    })
                });
            }
        });
        assert_eq!(cache.stats().entries, 3, "burst overfills transiently");
        cache.get_or_compute(9, || 9);
        let stats = cache.stats();
        assert!(
            stats.entries <= 2,
            "next miss drains the overfill, got {} entries",
            stats.entries
        );
    }

    #[test]
    fn grid_layer_shares_one_computation_per_region() {
        let a = grid_year(RegionId::Tennessee);
        let b = grid_year(RegionId::Tennessee);
        assert!(Arc::ptr_eq(&a, &b), "repeat is an Arc clone");
        assert_eq!(a.region(), RegionId::Tennessee);
    }

    #[test]
    fn wue_layer_shares_one_computation_per_preset() {
        let mut spec = SystemSpec::reference(thirstyflops_catalog::SystemId::Polaris);
        spec.climate = ClimatePreset::Kobe;
        spec.nodes = 64;
        let lanes = resolve(&[(&spec, 1), (&spec, 2)]);
        let again = resolve(&[(&spec, 1)]);
        assert!(
            Arc::ptr_eq(&lanes[0].wue, &lanes[1].wue),
            "one lookup per call"
        );
        assert!(
            Arc::ptr_eq(&lanes[0].wue, &again[0].wue),
            "a repeat is an Arc clone"
        );
        assert!(Arc::ptr_eq(&lanes[0].workload, &again[0].workload));
        // Same bytes as the direct computation.
        let direct = ClimatePreset::Kobe
            .wue_model()
            .hourly_series(&ClimatePreset::Kobe.generate());
        assert_eq!(lanes[0].wue.values(), direct.values());
    }
}
