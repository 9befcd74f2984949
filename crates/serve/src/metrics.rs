//! Per-endpoint request counters and latency histograms.
//!
//! One fixed-size table of atomic counters, indexed by endpoint family
//! (the same families the router resolves). Counters are monotonic and
//! lock-free; each family also keeps a [`LatencyHistogram`] — the
//! workspace-wide log₂-bucket histogram from `thirstyflops_obs`,
//! re-exported here so `loadgen` and the server report quantiles on
//! identical bucket edges — so `GET /v1/cache/stats` can serve
//! p50/p90/p99 tail latencies without ever taking a lock or storing
//! individual samples. `serve --log-json` prints one line per request from
//! the same measurements, and `GET /v1/metrics` renders the table as
//! Prometheus text via [`Metrics::render_prometheus`].
//!
//! Unlike the global `thirstyflops_obs::registry`, this table is
//! instance-local (one per [`crate::AppState`]) so tests can spin up
//! many servers in one process without sharing counters.

use std::sync::atomic::{AtomicU64, Ordering};

use thirstyflops_obs::prom::PromWriter;
pub use thirstyflops_obs::LatencyHistogram;

/// The endpoint families metrics are kept for, stats order. `shed`
/// counts capacity rejections (503 connection sheds and 413/431
/// over-cap requests — see `docs/SERVING.md`); `other` absorbs
/// unroutable paths and the remaining unparsable requests.
pub const ENDPOINTS: [&str; 15] = [
    "healthz",
    "readyz",
    "cache_stats",
    "systems",
    "footprint",
    "compare",
    "rank",
    "scenario",
    "scenarios_run",
    "scenarios_sweep",
    "experiments",
    "metrics",
    "trace",
    "shed",
    "other",
];

/// Why a request was shed, `thirstyflops_shed_total`'s `reason` label
/// values: accept-time connection-limit 503s, over-cap 431/413
/// rejections, and per-request deadline 504s.
pub const SHED_REASONS: [&str; 4] = [
    "connection_limit",
    "head_too_large",
    "body_too_large",
    "deadline",
];

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    latency: LatencyHistogram,
}

/// The per-endpoint counter table.
#[derive(Debug, Default)]
pub struct Metrics {
    table: [Counters; ENDPOINTS.len()],
    shed: [AtomicU64; SHED_REASONS.len()],
}

/// One endpoint's snapshot as served by `GET /v1/cache/stats`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EndpointStats {
    /// Endpoint family name (see [`ENDPOINTS`]).
    pub endpoint: String,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests answered from the body cache.
    pub cache_hits: u64,
    /// Total handler wall-clock across those requests, microseconds.
    pub total_micros: u64,
    /// Median latency, microseconds (log-bucket upper bound; 0 when no
    /// requests recorded).
    pub p50_micros: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_micros: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_micros: u64,
}

impl Metrics {
    /// Records one answered request. Unknown labels land in `other`.
    pub fn record(&self, endpoint: &str, cache_hit: bool, micros: u64) {
        let idx = ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        let counters = &self.table[idx];
        counters.requests.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        counters.latency.record(micros);
    }

    /// Records one shed request by reason (see [`SHED_REASONS`]).
    /// Unknown reasons are ignored rather than miscounted — callers
    /// pass compile-time constants, so a miss is a programming error
    /// the tests catch.
    pub fn record_shed(&self, reason: &str) {
        if let Some(idx) = SHED_REASONS.iter().position(|r| *r == reason) {
            self.shed[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shed counts by reason, [`SHED_REASONS`] order.
    pub fn shed_snapshot(&self) -> [u64; SHED_REASONS.len()] {
        let mut out = [0u64; SHED_REASONS.len()];
        for (slot, counter) in out.iter_mut().zip(&self.shed) {
            *slot = counter.load(Ordering::Relaxed);
        }
        out
    }

    /// Total requests answered across every family (`/healthz`'s
    /// `requests_total`).
    pub fn total_requests(&self) -> u64 {
        self.table
            .iter()
            .map(|c| c.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// A snapshot of every family, stats order (families with zero
    /// requests included, so the payload shape is stable).
    pub fn snapshot(&self) -> Vec<EndpointStats> {
        ENDPOINTS
            .iter()
            .zip(&self.table)
            .map(|(endpoint, counters)| EndpointStats {
                endpoint: (*endpoint).to_string(),
                requests: counters.requests.load(Ordering::Relaxed),
                cache_hits: counters.cache_hits.load(Ordering::Relaxed),
                total_micros: counters.latency.sum(),
                p50_micros: counters.latency.quantile(0.50),
                p90_micros: counters.latency.quantile(0.90),
                p99_micros: counters.latency.quantile(0.99),
            })
            .collect()
    }

    /// Renders the table as Prometheus text exposition: request and
    /// cache-hit counters plus the full latency histogram, one series
    /// per endpoint family in [`ENDPOINTS`] order. `/v1/metrics`
    /// appends this to the global registry's rendering.
    pub fn render_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.header(
            "thirstyflops_http_requests_total",
            "requests answered per endpoint family (any status)",
            "counter",
        );
        for (endpoint, counters) in ENDPOINTS.iter().zip(&self.table) {
            w.sample_u64(
                "thirstyflops_http_requests_total",
                &format!("endpoint=\"{endpoint}\""),
                counters.requests.load(Ordering::Relaxed),
            );
        }
        w.header(
            "thirstyflops_http_cache_hits_total",
            "requests answered from the body cache per endpoint family",
            "counter",
        );
        for (endpoint, counters) in ENDPOINTS.iter().zip(&self.table) {
            w.sample_u64(
                "thirstyflops_http_cache_hits_total",
                &format!("endpoint=\"{endpoint}\""),
                counters.cache_hits.load(Ordering::Relaxed),
            );
        }
        w.header(
            "thirstyflops_shed_total",
            "requests shed by reason (connection limit, over-cap, deadline)",
            "counter",
        );
        for (reason, counter) in SHED_REASONS.iter().zip(&self.shed) {
            w.sample_u64(
                "thirstyflops_shed_total",
                &format!("reason=\"{reason}\""),
                counter.load(Ordering::Relaxed),
            );
        }
        w.header(
            "thirstyflops_http_request_duration_micros",
            "request wall-clock per endpoint family, microseconds",
            "histogram",
        );
        for (endpoint, counters) in ENDPOINTS.iter().zip(&self.table) {
            w.histogram(
                "thirstyflops_http_request_duration_micros",
                &format!("endpoint=\"{endpoint}\""),
                &counters.latency,
            );
        }
        w.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_family() {
        let metrics = Metrics::default();
        metrics.record("footprint", true, 120);
        metrics.record("footprint", false, 80);
        metrics.record("no-such-endpoint", false, 5);
        let snap = metrics.snapshot();
        assert_eq!(snap.len(), ENDPOINTS.len());
        let footprint = snap.iter().find(|s| s.endpoint == "footprint").unwrap();
        assert_eq!(footprint.requests, 2);
        assert_eq!(footprint.cache_hits, 1);
        assert_eq!(footprint.total_micros, 200);
        let other = snap.iter().find(|s| s.endpoint == "other").unwrap();
        assert_eq!(other.requests, 1);
        // Untouched families are present with zero counts.
        let rank = snap.iter().find(|s| s.endpoint == "rank").unwrap();
        assert_eq!(rank.requests, 0);
        assert_eq!((rank.p50_micros, rank.p99_micros), (0, 0));
        assert_eq!(metrics.total_requests(), 3);
    }

    #[test]
    fn shed_is_its_own_family() {
        let metrics = Metrics::default();
        metrics.record("shed", false, 40);
        let snap = metrics.snapshot();
        let shed = snap.iter().find(|s| s.endpoint == "shed").unwrap();
        assert_eq!(shed.requests, 1);
        let other = snap.iter().find(|s| s.endpoint == "other").unwrap();
        assert_eq!(other.requests, 0, "sheds must not be lumped into other");
    }

    #[test]
    fn shed_reasons_count_and_render() {
        let metrics = Metrics::default();
        metrics.record_shed("connection_limit");
        metrics.record_shed("connection_limit");
        metrics.record_shed("deadline");
        metrics.record_shed("not-a-reason");
        assert_eq!(metrics.shed_snapshot(), [2, 0, 0, 1]);
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE thirstyflops_shed_total counter\n"));
        assert!(text.contains("thirstyflops_shed_total{reason=\"connection_limit\"} 2\n"));
        assert!(text.contains("thirstyflops_shed_total{reason=\"deadline\"} 1\n"));
        for reason in SHED_REASONS {
            assert!(
                text.contains(&format!("thirstyflops_shed_total{{reason=\"{reason}\"}} ")),
                "{reason} missing from exposition"
            );
        }
    }

    #[test]
    fn snapshot_reports_quantiles_per_family() {
        let metrics = Metrics::default();
        for _ in 0..99 {
            metrics.record("rank", false, 10);
        }
        metrics.record("rank", false, 1_000_000);
        let snap = metrics.snapshot();
        let rank = snap.iter().find(|s| s.endpoint == "rank").unwrap();
        assert_eq!(rank.p50_micros, 15, "10µs lands in [8,16)");
        assert_eq!(rank.p90_micros, 15);
        assert_eq!(
            rank.p99_micros, 15,
            "rank 99 of 100 is still the fast bucket"
        );
        assert_eq!(rank.total_micros, 99 * 10 + 1_000_000);
    }

    #[test]
    fn prometheus_rendering_covers_every_family() {
        let metrics = Metrics::default();
        metrics.record("rank", true, 100);
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE thirstyflops_http_requests_total counter\n"));
        assert!(text.contains("thirstyflops_http_requests_total{endpoint=\"rank\"} 1\n"));
        assert!(text.contains("thirstyflops_http_cache_hits_total{endpoint=\"rank\"} 1\n"));
        assert!(
            text.contains("thirstyflops_http_request_duration_micros_count{endpoint=\"rank\"} 1\n")
        );
        assert!(
            text.contains("thirstyflops_http_request_duration_micros_sum{endpoint=\"rank\"} 100\n")
        );
        for endpoint in ENDPOINTS {
            assert!(
                text.contains(&format!(
                    "thirstyflops_http_requests_total{{endpoint=\"{endpoint}\"}} "
                )),
                "{endpoint} missing from exposition"
            );
        }
        // Rendering is stable: two snapshots of the same state match.
        assert_eq!(text, metrics.render_prometheus());
    }
}
