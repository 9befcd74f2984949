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

use thirstyflops_catalog::SystemSpec;
use thirstyflops_grid::{GridRegion, GridYear, RegionId};
use thirstyflops_obs::span;
use thirstyflops_obs::Counter;
use thirstyflops_timeseries::HourlySeries;
use thirstyflops_weather::ClimatePreset;

use crate::simulate::{workload_series, WorkloadKey};

/// `DefaultHasher::default()` is SipHash with fixed keys — deterministic
/// across processes, unlike `RandomState`.
type FixedState = BuildHasherDefault<DefaultHasher>;

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

/// The memoized workload year of `(spec, seed)`: the one lookup both
/// `SystemYear::simulate_spec` and the K-lane kernel make.
pub(crate) fn workload(spec: &SystemSpec, seed: u64) -> Arc<Workload> {
    // The span covers the demand (hit, miss or poisoned recompute), so
    // its invocation count is the number of workload years *asked for* —
    // a pure function of the command, identical at every thread count.
    let _span = span::span(span::CACHE_LOOKUP);
    // Injected cache poisoning (`docs/ROBUSTNESS.md`): a fired
    // `simcache_poison` fault forces this lookup down the uncached
    // recompute path — exercising the miss machinery under load without
    // ever storing a wrong value. Because hits and misses return
    // byte-identical series (the determinism contract above), poisoning
    // must never change any response body; chaos replays verify that.
    // The one site covers both the scalar year and the K-lane kernel.
    if thirstyflops_faults::global_simcache_poisoned() {
        return Arc::new(workload_series(spec, seed));
    }
    workload_cache().get_or_compute(WorkloadKey::new(spec, seed), || workload_series(spec, seed))
}

/// The memoized grid year for a region preset. Seed-independent: every
/// system in `region` shares one computation.
pub fn grid_year(region: RegionId) -> Arc<GridYear> {
    // One demand span per lookup, hit or miss, like `CACHE_LOOKUP`.
    let _span = span::span(span::GRID_KERNEL);
    grid_cache().get_or_compute(region, move || GridRegion::preset(region).simulate_year())
}

/// The memoized climate → WUE hourly series for a climate preset.
/// Seed-independent: every system with `preset`'s climate shares one
/// weather + WUE computation.
pub fn wue_series(preset: ClimatePreset) -> Arc<HourlySeries> {
    // One demand span per lookup, hit or miss, like `CACHE_LOOKUP`.
    let _span = span::span(span::WUE_SERIES);
    wue_cache().get_or_compute(preset, move || {
        let climate = preset.generate();
        preset.wue_model().hourly_series(&climate)
    })
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
        let a = wue_series(ClimatePreset::Kobe);
        let b = wue_series(ClimatePreset::Kobe);
        assert!(Arc::ptr_eq(&a, &b));
        // Same bytes as the direct computation.
        let direct = ClimatePreset::Kobe
            .wue_model()
            .hourly_series(&ClimatePreset::Kobe.generate());
        assert_eq!(a.values(), direct.values());
    }
}
