//! The `--profile` report: the trace rollup (per stage and per path)
//! plus the registry's counters, rendered as a human table or JSON.
//!
//! The CLI prints this to **stderr** after the command finishes, so
//! stdout (the actual command output) stays byte-identical with
//! profiling on or off. `tests/determinism.rs` compares both forms
//! across thread counts — strip the `*_ns` fields before comparing;
//! they are wall-clock.

use crate::registry;
use crate::trace::{self, FoldedStack, StageProfile};

/// One registered counter's value at report time.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CounterSample {
    /// Rendered series name, labels included.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// The full profile: every span stage plus every registered counter.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProfileReport {
    /// Per-stage span aggregates, in fixed stage order: the rollup
    /// summed by leaf stage.
    pub stages: Vec<StageProfile>,
    /// Registered counters in exposition order (histograms
    /// excluded — counts are what the determinism contract covers).
    pub counters: Vec<CounterSample>,
    /// Flamegraph-style folded stacks from the trace rollup, sorted by
    /// path. `count` is deterministic, `self_ns` is wall-clock.
    pub folded: Vec<FoldedStack>,
}

/// Captures the current profile.
pub fn profile_report() -> ProfileReport {
    let rollup = trace::rollup();
    ProfileReport {
        stages: rollup.stages(),
        counters: registry::counters_snapshot()
            .into_iter()
            .map(|(name, value)| CounterSample { name, value })
            .collect(),
        folded: rollup.folded(),
    }
}

/// The profile as pretty JSON with a trailing newline (the CLI's
/// `--profile --json` stderr payload).
pub fn profile_json() -> String {
    let mut body = serde_json::to_string_pretty(&profile_report()).expect("profile serializes");
    body.push('\n');
    body
}

/// The profile as a human-readable table (the CLI's plain `--profile`
/// stderr payload).
pub fn profile_table() -> String {
    let report = profile_report();
    let self_total: u64 = report.stages.iter().map(|s| s.self_ns).sum();
    let mut out = String::from("stage            invocations    total_ms     self_ms   self%\n");
    for s in &report.stages {
        let pct = if self_total == 0 {
            0.0
        } else {
            100.0 * s.self_ns as f64 / self_total as f64
        };
        out.push_str(&format!(
            "{:<16} {:>11} {:>11.3} {:>11.3} {:>6.1}\n",
            s.stage,
            s.invocations,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            pct,
        ));
    }
    if !report.counters.is_empty() {
        out.push_str("\ncounter                                                       value\n");
        for c in &report.counters {
            out.push_str(&format!("{:<57} {:>11}\n", c.name, c.value));
        }
    }
    if !report.folded.is_empty() {
        out.push_str("\nfolded stack                                        count     self_ms\n");
        for f in &report.folded {
            out.push_str(&format!(
                "{:<48} {:>8} {:>11.3}\n",
                f.stack,
                f.count,
                f.self_ns as f64 / 1e6,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_json_round_trips_and_ends_with_newline() {
        registry::global()
            .counter("test_report_seen_total", "x")
            .add(5);
        let json = profile_json();
        assert!(json.ends_with('\n'));
        let parsed: ProfileReport = serde_json::from_str(&json).expect("parses back");
        assert_eq!(parsed.stages.len(), crate::span::STAGE_COUNT);
        assert!(parsed
            .counters
            .iter()
            .any(|c| c.name == "test_report_seen_total" && c.value == 5));
    }

    #[test]
    fn table_lists_every_stage() {
        let table = profile_table();
        for name in crate::span::STAGE_NAMES {
            assert!(table.contains(name), "{name} missing from table");
        }
    }
}
