//! The global metrics registry: named counters and histograms.
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
enum Series {
    Counter(Counter),
    Histogram(Arc<LatencyHistogram>),
}

/// One metric family: shared help/kind, one series per label set.
struct Family {
    help: &'static str,
    kind: &'static str,
    /// Keyed by the rendered inner label string (`cache="grid_years"`,
    /// empty for unlabeled) — `BTreeMap` order is exposition order.
    series: BTreeMap<String, Series>,
}

fn registry() -> &'static Mutex<BTreeMap<String, Family>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Family>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Renders labels as the inner Prometheus label string, without braces.
fn render_labels(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",")
}

fn register(
    name: &str,
    labels: &[(&str, &str)],
    help: &'static str,
    kind: &'static str,
    make: impl FnOnce() -> Series,
) -> &'static Mutex<BTreeMap<String, Family>> {
    let key = render_labels(labels);
    let reg = registry();
    let mut map = reg.lock().expect("obs registry lock");
    let family = map.entry(name.to_string()).or_insert_with(|| Family {
        help,
        kind,
        series: BTreeMap::new(),
    });
    assert_eq!(
        family.kind, kind,
        "metric {name:?} registered twice with different kinds"
    );
    family.series.entry(key).or_insert_with(make);
    reg
}

/// Registers (or finds) an unlabeled counter.
pub fn counter(name: &str, help: &'static str) -> Counter {
    counter_labeled(name, &[], help)
}

/// Registers (or finds) a counter with the given label set.
pub fn counter_labeled(name: &str, labels: &[(&str, &str)], help: &'static str) -> Counter {
    let reg = register(name, labels, help, "counter", || {
        Series::Counter(Counter::detached())
    });
    let key = render_labels(labels);
    let map = reg.lock().expect("obs registry lock");
    match map.get(name).and_then(|f| f.series.get(&key)) {
        Some(Series::Counter(c)) => c.clone(),
        _ => unreachable!("{name} was just registered as a counter"),
    }
}

/// Registers (or finds) an unlabeled histogram.
pub fn histogram(name: &str, help: &'static str) -> Arc<LatencyHistogram> {
    histogram_labeled(name, &[], help)
}

/// Registers (or finds) a histogram with the given label set.
pub fn histogram_labeled(
    name: &str,
    labels: &[(&str, &str)],
    help: &'static str,
) -> Arc<LatencyHistogram> {
    let reg = register(name, labels, help, "histogram", || {
        Series::Histogram(Arc::new(LatencyHistogram::default()))
    });
    let key = render_labels(labels);
    let map = reg.lock().expect("obs registry lock");
    match map.get(name).and_then(|f| f.series.get(&key)) {
        Some(Series::Histogram(h)) => Arc::clone(h),
        _ => unreachable!("{name} was just registered as a histogram"),
    }
}

/// Snapshot of every registered counter as `(rendered name, value)`,
/// in exposition order. Histograms are excluded on purpose:
/// this feeds the `--profile` report's count-determinism comparisons,
/// which only hold for work counters.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let map = registry().lock().expect("obs registry lock");
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
pub fn render_prometheus() -> String {
    let map = registry().lock().expect("obs registry lock");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_idempotent_and_shared() {
        let a = counter("test_reg_shared_total", "x");
        let b = counter("test_reg_shared_total", "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let a = counter_labeled("test_reg_labeled_total", &[("k", "a")], "x");
        let b = counter_labeled("test_reg_labeled_total", &[("k", "b")], "x");
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
        counter_labeled("test_reg_snap_total", &[("k", "b")], "x").inc();
        counter_labeled("test_reg_snap_total", &[("k", "a")], "x").add(2);
        let snap = counters_snapshot();
        let ours: Vec<_> = snap
            .iter()
            .filter(|(n, _)| n.starts_with("test_reg_snap_total"))
            .collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].0, "test_reg_snap_total{k=\"a\"}");
        assert_eq!(ours[0].1, 2);
        assert_eq!(ours[1].0, "test_reg_snap_total{k=\"b\"}");
        assert_eq!(ours[1].1, 1);
    }

    #[test]
    fn render_emits_help_type_and_samples() {
        counter("test_reg_render_total", "how many renders").add(7);
        let h = histogram("test_reg_render_hist", "a histogram");
        h.record(100);
        let text = render_prometheus();
        assert!(text.contains("# HELP test_reg_render_total how many renders\n"));
        assert!(text.contains("# TYPE test_reg_render_total counter\n"));
        assert!(text.contains("test_reg_render_total 7\n"));
        assert!(text.contains("# TYPE test_reg_render_hist histogram\n"));
        assert!(text.contains("test_reg_render_hist_bucket{le=\"127\"} 1\n"));
        assert!(text.contains("test_reg_render_hist_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("test_reg_render_hist_count 1\n"));
        assert!(text.contains("test_reg_render_hist_sum 100\n"));
    }

    #[test]
    fn render_is_stable_across_calls() {
        counter("test_reg_stable_total", "x").inc();
        assert_eq!(render_prometheus(), render_prometheus());
    }
}
