//! Metric names and units, as `BENCHMARK.json` declares them, and the
//! end-to-end metrics computed from a run's raw samples.

use crate::stats::{quantile, tail_q, Summary};
use crate::workloads::Measured;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`crate::probe::per_layer`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Spread of the samples behind it, when there are several.
    pub summary: Option<Summary>,
}

/// The end-to-end metrics of an untraced run, `END_TO_END` order.
/// Timings are medians over the run's repetitions (serve throughput and
/// p99: over 1,000-request windows). A CLI run's latency tail is the
/// highest percentile up to p99 with ten processes beyond it.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let median = |xs: &[f64]| quantile(xs, 0.5).unwrap_or(f64::NAN);
    let tail = if m.p99_us.is_empty() {
        let q = tail_q(m.latency_us.len(), 0.99);
        (
            quantile(&m.latency_us, q).unwrap_or(f64::NAN),
            &m.latency_us,
        )
    } else {
        (median(&m.p99_us), &m.p99_us)
    };
    let values = [
        (median(&m.wall_s), &m.wall_s),
        (median(&m.req_per_s), &m.req_per_s),
        (median(&m.latency_us), &m.latency_us),
        tail,
        (median(&m.setup_s), &m.setup_s),
        (median(&m.rss_mb), &m.rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            summary: Summary::of(samples),
        })
        .collect()
}
