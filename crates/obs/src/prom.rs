//! Prometheus text-exposition writer. Crate-private: only
//! [`Registry::render_prometheus`](crate::registry::Registry::render_prometheus)
//! writes exposition text, so every `/v1/metrics` family goes through
//! one code path.
//!
//! Output follows the text format version 0.0.4: `# HELP` / `# TYPE`
//! headers per family, one sample per line, histogram families expanded
//! into cumulative `_bucket{le=...}` lines plus `_count` and `_sum`.
//! Callers pass labels as the *inner* rendered string
//! (`endpoint="rank"`, empty for none); the writer adds braces and, for
//! histograms, merges in the `le` label.

use crate::hist::{LatencyHistogram, BUCKETS};

/// An append-only Prometheus text body under construction.
#[derive(Debug, Default)]
pub(crate) struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty body.
    pub(crate) fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Writes a family's `# HELP` and `# TYPE` lines.
    pub(crate) fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &str, value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            self.out.push_str(labels);
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    /// One integer sample line.
    pub(crate) fn sample_u64(&mut self, name: &str, labels: &str, value: u64) {
        self.sample(name, labels, &value.to_string());
    }

    /// Expands one histogram series: cumulative `_bucket` lines with
    /// `le` bounds `0, 1, 3, …, 2^(BUCKETS-2)−1, +Inf`, then `_count`
    /// and `_sum`.
    pub(crate) fn histogram(&mut self, name: &str, labels: &str, hist: &LatencyHistogram) {
        let counts = hist.bucket_counts();
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (idx, count) in counts.iter().enumerate() {
            cumulative += count;
            let le = if idx + 1 == BUCKETS {
                "+Inf".to_string()
            } else {
                LatencyHistogram::upper_bound(idx).to_string()
            };
            let with_le = if labels.is_empty() {
                format!("le=\"{le}\"")
            } else {
                format!("{labels},le=\"{le}\"")
            };
            self.sample_u64(&bucket_name, &with_le, cumulative);
        }
        self.sample_u64(&format!("{name}_count"), labels, cumulative);
        self.sample_u64(&format!("{name}_sum"), labels, hist.sum());
    }

    /// The finished body.
    pub(crate) fn into_string(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_render_with_and_without_labels() {
        let mut w = PromWriter::new();
        w.header("x_total", "things", "counter");
        w.sample_u64("x_total", "", 3);
        w.sample_u64("x_total", "k=\"v\"", 4);
        assert_eq!(
            w.into_string(),
            "# HELP x_total things\n# TYPE x_total counter\nx_total 3\nx_total{k=\"v\"} 4\n"
        );
    }

    #[test]
    fn histograms_expand_cumulatively_with_inf_and_sum() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(100);
        h.record(u64::MAX);
        let mut w = PromWriter::new();
        w.histogram("lat", "e=\"rank\"", &h);
        let text = w.into_string();
        assert!(text.contains("lat_bucket{e=\"rank\",le=\"0\"} 1\n"));
        assert!(text.contains("lat_bucket{e=\"rank\",le=\"127\"} 2\n"));
        assert!(text.contains("lat_bucket{e=\"rank\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_count{e=\"rank\"} 3\n"));
        assert!(text.ends_with(&format!(
            "lat_sum{{e=\"rank\"}} {}\n",
            100u64.wrapping_add(u64::MAX)
        )));
        // Cumulative counts never decrease.
        let mut last = 0;
        for line in text.lines().filter(|l| l.starts_with("lat_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }
}
