//! A sharded, bounded in-memory result cache for rendered JSON bodies.
//!
//! Keys are canonical request descriptors (`"footprint/polaris?seed=7"`
//! — normalized, so a defaulted and an explicit `seed=2023` share one
//! entry; see `docs/SERVING.md` for the scheme). Values are the exact
//! response bodies, shared via `Arc` so a hit costs one clone of a
//! pointer, not a re-simulation of an 8760-hour year.
//!
//! The cache is a thin wrapper over [`MemoCache`] — the same sharded,
//! single-flight memo structure the simulation substrate uses — so under
//! concurrent misses on one hot key exactly one worker renders the body
//! and the rest block and share it, instead of racing duplicate
//! simulations. The key space is caller-controlled (`?seed=` is a free
//! `u64`), so the cache is **bounded**: LRU eviction on overflow and an
//! optional TTL, both counted in [`CacheStats::evictions`].
//!
//! Determinism contract: handlers are pure functions of the canonical
//! key, so a cached body and a freshly computed body are byte-identical
//! by construction — eviction and expiry affect only *when* a body is
//! recomputed, never its bytes. Single-flight also makes the hit/miss
//! counters exact: each key's first touch is the one miss, every other
//! lookup (even a racer that blocked on the in-flight render) is a hit.

use std::sync::Arc;
use std::time::Duration;

use thirstyflops_core::simcache::MemoCache;

/// Sharded `(canonical request) → (response body)` cache with
/// single-flight computes, LRU eviction, optional TTL, and
/// hit/miss/eviction counters.
#[derive(Debug)]
pub struct ResultCache {
    memo: MemoCache<String, Arc<str>>,
}

/// Body-cache counters exposed by `GET /v1/cache/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Requests answered from the cache (no simulation ran) — including
    /// racers that blocked on an in-flight render.
    pub hits: u64,
    /// First touches that rendered and inserted their body.
    pub misses: u64,
    /// Distinct cached bodies across all shards.
    pub entries: u64,
    /// Bodies dropped by the LRU bound or the TTL.
    pub evictions: u64,
    /// Effective entry bound: the configured `--cache-entries` rounded
    /// up to a full shard multiple (`0` = unbounded).
    pub capacity: u64,
    /// Configured TTL in seconds (`0` = entries never expire).
    pub ttl_seconds: u64,
    /// Number of shards (fixed at construction).
    pub shards: u64,
}

impl ResultCache {
    /// A cache with `shards` independent locks (clamped to ≥ 1), bounded
    /// entries (`capacity` = `0` means unbounded), and an optional
    /// time-to-live. The bound is enforced per shard (at least one entry
    /// each), so the effective total — what [`CacheStats::capacity`]
    /// reports — is `capacity` rounded up to a full shard multiple, and
    /// the live total can sit under it when keys hash unevenly.
    pub fn with_limits(shards: usize, capacity: usize, ttl: Option<Duration>) -> ResultCache {
        ResultCache {
            memo: MemoCache::with_ttl(shards, capacity, ttl),
        }
    }

    /// Returns the cached body for `key`, or computes, caches, and
    /// returns it. Single-flight: under concurrent misses on one key,
    /// exactly one caller renders; the rest block and share the result.
    /// The compute closure runs outside the shard lock, so a slow
    /// simulation never blocks unrelated keys in the same shard.
    pub fn get_or_compute(&self, key: &str, compute: impl FnOnce() -> String) -> Arc<str> {
        let slot = self
            .memo
            .get_or_compute(key.to_string(), || Arc::from(compute()));
        Arc::clone(&slot)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let layer = self.memo.stats();
        CacheStats {
            hits: layer.hits,
            misses: layer.misses,
            entries: layer.entries,
            evictions: layer.evictions,
            capacity: self.memo.capacity(),
            ttl_seconds: self.memo.ttl().map_or(0, |t| t.as_secs()),
            shards: self.memo.shard_count(),
        }
    }
}

impl Default for ResultCache {
    /// Eight shards (enough to keep worker threads off each other's
    /// locks at any realistic worker count), bounded at 4096 entries,
    /// no TTL — the `thirstyflops serve` defaults.
    fn default() -> ResultCache {
        ResultCache::with_limits(8, 4096, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_and_skips_compute() {
        let cache = ResultCache::default();
        let first = cache.get_or_compute("k", || "body".into());
        let second = cache.get_or_compute("k", || panic!("must not recompute"));
        assert_eq!(&*first, "body");
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.shards, 8);
        assert_eq!(stats.capacity, 4096);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.ttl_seconds, 0);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let cache = ResultCache::with_limits(2, 0, None);
        for i in 0..10 {
            cache.get_or_compute(&format!("k{i}"), || format!("v{i}"));
        }
        assert_eq!(cache.stats().entries, 10);
        assert_eq!(cache.stats().misses, 10);
        assert_eq!(&*cache.get_or_compute("k3", || unreachable!()), "v3");
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ResultCache::with_limits(0, 0, None).stats().shards, 1);
    }

    #[test]
    fn lru_bound_evicts_the_least_recent_body() {
        // One shard, capacity 3 ⇒ per-shard bound 3.
        let cache = ResultCache::with_limits(1, 3, None);
        for k in ["a", "b", "c"] {
            cache.get_or_compute(k, || k.to_uppercase());
        }
        // Touch "a" so "b" is the LRU victim for the next insert.
        cache.get_or_compute("a", || unreachable!("hit"));
        cache.get_or_compute("d", || "D".into());
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 1);
        // "b" recomputes (it was evicted) — which in turn evicts "c",
        // by then the least-recently-used survivor.
        let mut recomputed = false;
        cache.get_or_compute("b", || {
            recomputed = true;
            "B".into()
        });
        assert!(recomputed, "b must have been evicted");
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().entries, 3);
        // "a" was touched most recently of the original trio: it outlives
        // both eviction rounds.
        cache.get_or_compute("a", || unreachable!("a survived"));
    }

    #[test]
    fn ttl_expires_entries_and_counts_evictions() {
        let cache = ResultCache::with_limits(1, 0, Some(Duration::from_millis(25)));
        cache.get_or_compute("k", || "v1".into());
        assert_eq!(&*cache.get_or_compute("k", || unreachable!()), "v1");
        std::thread::sleep(Duration::from_millis(40));
        let mut recomputed = false;
        let body = cache.get_or_compute("k", || {
            recomputed = true;
            "v1".into() // pure handlers: same bytes after expiry
        });
        assert!(recomputed, "expired entry must recompute");
        assert_eq!(&*body, "v1");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.ttl_seconds, 0, "sub-second TTL rounds down");
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn concurrent_identical_misses_are_single_flight() {
        let cache = std::sync::Arc::new(ResultCache::default());
        let rendered = std::sync::atomic::AtomicUsize::new(0);
        let bodies: Vec<Arc<str>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = std::sync::Arc::clone(&cache);
                    let rendered = &rendered;
                    scope.spawn(move || {
                        cache.get_or_compute("hot", || {
                            rendered.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            // Widen the race window so late arrivals
                            // genuinely block on the in-flight render.
                            std::thread::sleep(Duration::from_millis(20));
                            "same".into()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(bodies.iter().all(|b| &**b == "same"));
        assert_eq!(
            rendered.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "hot key renders exactly once"
        );
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
