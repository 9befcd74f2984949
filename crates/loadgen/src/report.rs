//! Rendering load reports: the human summary table and the chaos
//! accounting block. `--json` output is rendered by `serve::api`.

use crate::run::{ChaosStats, LoadReport};

/// Renders the human-readable summary table for one run.
pub fn human_table(report: &LoadReport) -> String {
    let mut out = format!(
        "loadgen: mix \"{}\" (seed {}), {} requests over {} {} connection{}{}\n\
         {:.1} req/s, {:.1} ms elapsed, {} mismatch{}, {} error{}\n",
        report.mix,
        report.seed,
        report.requests,
        report.connections,
        report.discipline,
        if report.connections == 1 { "" } else { "s" },
        if report.workers > 0 {
            format!(", {} server workers", report.workers)
        } else {
            String::new()
        },
        report.requests_per_sec,
        report.elapsed_micros as f64 / 1e3,
        report.mismatches,
        if report.mismatches == 1 { "" } else { "es" },
        report.errors,
        if report.errors == 1 { "" } else { "s" },
    );
    out.push_str(&format!(
        "{:<18} {:>9} {:>10} {:>10} {:>10}\n",
        "endpoint", "requests", "p50 µs", "p90 µs", "p99 µs"
    ));
    for e in &report.endpoints {
        out.push_str(&format!(
            "{:<18} {:>9} {:>10} {:>10} {:>10}\n",
            e.endpoint, e.requests, e.p50_micros, e.p90_micros, e.p99_micros
        ));
    }
    for sample in &report.mismatch_samples {
        out.push_str(&format!("  ! {sample}\n"));
    }
    out
}

/// Renders the chaos error/retry/recovery accounting as a
/// human-readable block appended after [`human_table`]'s output.
pub fn chaos_table(stats: &ChaosStats) -> String {
    let mut out = format!(
        "chaos: {} attempts, {} retried, {} faulted (500: {}, 503: {}, 504: {}), \
         {} transport error{}, {} unrecovered\n",
        stats.attempts,
        stats.retried,
        stats.faulted,
        stats.status_500,
        stats.status_503,
        stats.status_504,
        stats.transport_errors,
        if stats.transport_errors == 1 { "" } else { "s" },
        stats.unrecovered,
    );
    for site in &stats.fault_sites {
        out.push_str(&format!("  fault {:<18} {:>6}\n", site.site, site.injected));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::EndpointLoad;

    fn report(discipline: &str, rps: f64) -> LoadReport {
        LoadReport {
            mix: "smoke".into(),
            seed: 2023,
            discipline: discipline.into(),
            requests: 100,
            connections: 4,
            workers: 2,
            rate: 0.0,
            elapsed_micros: 10_000,
            requests_per_sec: rps,
            mismatches: 0,
            errors: 0,
            endpoints: vec![EndpointLoad {
                endpoint: "healthz".into(),
                requests: 100,
                p50_micros: 63,
                p90_micros: 127,
                p99_micros: 255,
            }],
            mismatch_samples: vec![],
        }
    }

    #[test]
    fn human_table_names_the_mix_and_endpoints() {
        let text = human_table(&report("keep-alive", 123.4));
        assert!(text.contains("mix \"smoke\""), "{text}");
        assert!(text.contains("healthz"), "{text}");
        assert!(text.contains("0 mismatches"), "{text}");
    }
}
