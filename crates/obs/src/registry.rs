//! Metrics registries: named counters and histograms.
//!
//! A [`Registry`] is the one place metrics are stored and rendered. The
//! process-wide instance, [`global()`], holds every crate's work
//! counters; each `serve` server owns a second one for its HTTP
//! families, so two servers in one process keep separate counts.
//!
//! Registration happens once per series (idempotent — re-registering a
//! name+labels pair returns a handle to the existing series) under one
//! mutex; updates never touch the registry again, they go straight
//! through cloneable atomic handles. Families and series live in
//! `BTreeMap`s keyed by name and rendered label string, so exposition
//! order is stable and the `/v1/metrics` body is deterministic modulo
//! the values themselves.
//!
//! Naming scheme (`docs/OBSERVABILITY.md`): every family is prefixed
//! `thirstyflops_`, counters end in `_total`, and label values identify
//! the sub-resource (for example
//! `thirstyflops_simcache_hits_total{cache="system_years"}`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::LatencyHistogram;
use crate::prom::PromWriter;

/// A cloneable, wait-free counter handle.
///
/// `detached()` makes a counter that is not in the registry — the update
/// paths are identical, so instance-local users (per-test caches, the
/// serve result cache) share code with registered ones.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter not attached to the registry.
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::detached()
    }
}

/// One series' value source.
#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Histogram(Arc<LatencyHistogram>),
}

/// One metric family: shared help/kind, one series per label set.
#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: &'static str,
    /// Keyed by the rendered inner label string (`cache="grid_years"`,
    /// empty for unlabeled) — `BTreeMap` order is exposition order.
    series: BTreeMap<String, Series>,
}

/// A set of metric families, rendered as one Prometheus text body.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// The process-wide registry every crate's work counters live in.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// [`Registry::counters_snapshot`] of [`global()`].
pub fn counters_snapshot() -> Vec<(String, u64)> {
    global().counters_snapshot()
}

impl Registry {
    /// Finds the series for `name` + `labels`, registering `new` first
    /// if absent.
    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
        kind: &'static str,
        new: Series,
    ) -> Series {
        let key = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect::<Vec<_>>()
            .join(",");
        let mut map = self.families.lock().expect("obs registry lock");
        let family = map.entry(name.to_string()).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name:?} registered twice with different kinds"
        );
        family.series.entry(key).or_insert(new).clone()
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &'static str) -> Counter {
        self.counter_labeled(name, &[], help)
    }

    /// Registers (or finds) a counter with the given label set.
    pub fn counter_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
    ) -> Counter {
        match self.register(
            name,
            labels,
            help,
            "counter",
            Series::Counter(Counter::default()),
        ) {
            Series::Counter(c) => c,
            Series::Histogram(_) => unreachable!("{name} is a counter family"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<LatencyHistogram> {
        self.histogram_labeled(name, &[], help)
    }

    /// Registers (or finds) a histogram with the given label set.
    pub fn histogram_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &'static str,
    ) -> Arc<LatencyHistogram> {
        match self.register(
            name,
            labels,
            help,
            "histogram",
            Series::Histogram(Arc::default()),
        ) {
            Series::Histogram(h) => h,
            Series::Counter(_) => unreachable!("{name} is a histogram family"),
        }
    }

    /// Snapshot of every registered counter as `(rendered name, value)`,
    /// in exposition order. Histograms are excluded on purpose:
    /// this feeds the `--profile` report's count-determinism comparisons,
    /// which only hold for work counters.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let map = self.families.lock().expect("obs registry lock");
        let mut out = Vec::new();
        for (name, family) in map.iter() {
            for (labels, series) in family.series.iter() {
                if let Series::Counter(c) = series {
                    let rendered = if labels.is_empty() {
                        name.clone()
                    } else {
                        format!("{name}{{{labels}}}")
                    };
                    out.push((rendered, c.get()));
                }
            }
        }
        out
    }

    /// Renders every registered family as Prometheus text exposition, in
    /// stable (name, label) order.
    pub fn render_prometheus(&self) -> String {
        let map = self.families.lock().expect("obs registry lock");
        let mut w = PromWriter::new();
        for (name, family) in map.iter() {
            w.header(name, family.help, family.kind);
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => w.sample_u64(name, labels, c.get()),
                    Series::Histogram(h) => w.histogram(name, labels, h),
                }
            }
        }
        w.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_idempotent_and_shared() {
        let reg = Registry::default();
        let a = reg.counter("shared_total", "x");
        let b = reg.counter("shared_total", "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = Registry::default();
        let a = reg.counter_labeled("labeled_total", &[("k", "a")], "x");
        let b = reg.counter_labeled("labeled_total", &[("k", "b")], "x");
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn detached_counters_update_without_registering() {
        let d = Counter::detached();
        d.add(41);
        d.inc();
        assert_eq!(d.get(), 42);
        // Two detached counters never alias.
        let e = Counter::detached();
        assert_eq!(e.get(), 0);
    }

    #[test]
    fn snapshot_renders_labels_and_sorts() {
        let reg = Registry::default();
        reg.counter_labeled("snap_total", &[("k", "b")], "x").inc();
        reg.counter_labeled("snap_total", &[("k", "a")], "x").add(2);
        reg.histogram("snap_hist", "x").record(1);
        assert_eq!(
            reg.counters_snapshot(),
            [
                ("snap_total{k=\"a\"}".to_string(), 2),
                ("snap_total{k=\"b\"}".to_string(), 1)
            ]
        );
    }

    #[test]
    fn render_emits_help_type_and_samples() {
        let reg = Registry::default();
        reg.counter("render_total", "how many renders").add(7);
        reg.histogram("render_hist", "a histogram").record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP render_total how many renders\n"));
        assert!(text.contains("# TYPE render_total counter\n"));
        assert!(text.contains("render_total 7\n"));
        assert!(text.contains("# TYPE render_hist histogram\n"));
        assert!(text.contains("render_hist_bucket{le=\"127\"} 1\n"));
        assert!(text.contains("render_hist_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("render_hist_count 1\n"));
        assert!(text.contains("render_hist_sum 100\n"));
    }

    #[test]
    fn render_is_stable_across_calls() {
        let reg = Registry::default();
        reg.counter("stable_total", "x").inc();
        assert_eq!(reg.render_prometheus(), reg.render_prometheus());
    }

    #[test]
    fn instances_keep_separate_series() {
        let a = Registry::default();
        let b = Registry::default();
        a.counter("test_reg_instance_total", "x").add(3);
        b.counter("test_reg_instance_total", "x");
        assert!(a
            .render_prometheus()
            .ends_with("test_reg_instance_total 3\n"));
        assert!(b
            .render_prometheus()
            .ends_with("test_reg_instance_total 0\n"));
        assert!(!global()
            .render_prometheus()
            .contains("test_reg_instance_total"));
    }
}
