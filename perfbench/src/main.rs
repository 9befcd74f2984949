//! `perfbench` — the repository's benchmark: four workloads against the
//! release `thirstyflops` binary, end-to-end metrics with tracing off,
//! and a separate in-process traced run for per-layer metrics.
//!
//! ```text
//! perfbench --bin PATH --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --bin PATH --check
//! ```
//!
//! `perfbench/run.sh` builds both binaries and passes `--bin`. The last
//! stdout line is the result object; the line before it is the full
//! record (seed, host facts, and every metric's spread). See
//! `perfbench/README.md`.

mod client;
mod metrics;
mod mix;
mod probe;
mod procs;
mod stats;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use metrics::Metric;
use verify::{Digest, Tally};
use workloads::Workload;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2023;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Where traced runs write their spans, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            1
        }
    };
    std::process::exit(code);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |raw| {
        raw.parse()
            .map_err(|_| format!("{name} expects a number, got {raw:?}"))
    })
}

fn run(args: &[String]) -> Result<i32, String> {
    let bin = flag(args, "--bin").ok_or("--bin PATH (the thirstyflops binary) is required")?;
    if !std::path::Path::new(bin).is_file() {
        return Err(format!("no binary at {bin}"));
    }
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    if let Some(group) = flag(args, "--probe") {
        return probe_child(group, seed, bin, flag(args, "--spans"));
    }
    if args.iter().any(|a| a == "--check") {
        return check(bin);
    }
    let name = flag(args, "--workload").ok_or("--workload NAME is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };

    let (metrics, tally) = if traced {
        traced_run(workload, seed, bin)?
    } else {
        let m = workloads::run(workload, seed, seconds, bin)?;
        (metrics::end_to_end(&m), m.tally)
    };
    let complete = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && complete;
    println!(
        "{}",
        record(workload, seed, seconds, traced, &metrics, &tally)
    );
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        values.join(", ")
    );
    Ok(0)
}

/// JSON has no NaN or infinity; an unmeasured value prints as `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"?\"".into())
}

/// The full record line: inputs, host facts, counts and every metric's
/// spread.
fn record(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    metrics: &[Metric],
    tally: &Tally,
) -> String {
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"spread\": {}}}",
                m.name,
                json_number(m.value),
                m.unit,
                m.summary.map_or("null".into(), |s| s.to_json())
            )
        })
        .collect();
    let failures: Vec<String> = tally.samples.iter().map(|s| json_string(s)).collect();
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {seed}, \"default_seed\": {DEFAULT_SEED}, \
         \"inputs\": \"{}\", \"trace\": {}, \"seconds\": {seconds}, \
         \"host\": {{\"nproc\": {nproc}, \"threads\": {}, \"workers\": {}, \"connections\": {}, \
         \"rustc\": {}, \"commit\": {}}}, \
         \"attempted\": {}, \"failed\": {}, \"failed_ratio\": {}, \"failures\": [{}], \
         \"metrics\": {{{}}}}}}}",
        workload.name(),
        if workload.seeded() { "seeded" } else { "fixed" },
        u8::from(traced),
        procs::THREADS,
        workload.workers(),
        workload.workers(),
        json_string(&command("rustc", &["-V"])),
        json_string(&command("git", &["rev-parse", "HEAD"])),
        tally.attempted,
        tally.failed,
        tally.failed_ratio(),
        failures.join(", "),
        rows.join(", ")
    )
}

/// `--probe GROUP`: one probe group in this process; prints its results
/// as one JSON line and writes its spans to `--spans FILE`.
fn probe_child(group: &str, seed: u64, bin: &str, spans: Option<&str>) -> Result<i32, String> {
    let mut rec = probe::Recorder::new();
    let out = probe::run(group, seed, bin, &mut rec)?;
    if let Some(path) = spans {
        std::fs::write(path, rec.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let pairs = |kv: &[(&str, f64)]| {
        kv.iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let failures: Vec<String> = out.tally.samples.iter().map(|s| json_string(s)).collect();
    println!(
        "{{\"metrics\": {{{}}}, \"aux\": {{{}}}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": [{}], \"digest\": {}}}",
        pairs(&out.metrics),
        pairs(&out.aux),
        out.tally.attempted,
        out.tally.failed,
        failures.join(", "),
        out.digest
            .map_or("null".into(), |d| json_string(&d.to_string()))
    );
    Ok(0)
}

/// One probe child's parsed output.
#[derive(Debug, Default)]
struct ProbeResult {
    metrics: BTreeMap<String, f64>,
    aux: BTreeMap<String, f64>,
    digest: Option<String>,
}

fn run_probe(
    group: &str,
    workload: Workload,
    seed: u64,
    bin: &str,
    tally: &mut Tally,
) -> ProbeResult {
    // One file per workload and group: the latest traced run's spans.
    let spans = format!("{OUT_DIR}/trace-{}-{group}.json", workload.name());
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--probe", group, "--seed", &seed.to_string(), "--bin", bin])
            .args(["--spans", &spans])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let parsed = output
        .map_err(|e| format!("probe {group}: {e}"))
        .and_then(|o| {
            if o.status.success() {
                Ok(o.stdout)
            } else {
                Err(format!("probe {group} exited with {}", o.status))
            }
        })
        .and_then(|stdout| {
            serde_json::from_str::<serde::Value>(String::from_utf8_lossy(&stdout).trim())
                .map_err(|e| format!("probe {group} output: {e}"))
        });
    let value = match parsed {
        Ok(v) => v,
        Err(e) => {
            tally.record(Err(e));
            return ProbeResult::default();
        }
    };
    let get = |key: &str| {
        value
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    };
    let map = |key: &str| -> BTreeMap<String, f64> {
        get(key)
            .and_then(serde::Value::as_object)
            .map(|o| {
                o.iter()
                    .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let count = |key: &str| get(key).and_then(serde::Value::as_u64).unwrap_or(0);
    let samples = get("failures")
        .and_then(serde::Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| match f {
            serde::Value::Str(s) => Some(format!("{group}: {s}")),
            _ => None,
        })
        .collect();
    tally.absorb(Tally {
        attempted: count("attempted"),
        failed: count("failed"),
        samples,
    });
    ProbeResult {
        metrics: map("metrics"),
        aux: map("aux"),
        digest: get("digest").and_then(|d| match d {
            serde::Value::Str(s) => Some(s.clone()),
            _ => None,
        }),
    }
}

/// The traced run: an untraced reference of the workload, then every
/// probe group, each in its own process.
fn traced_run(workload: Workload, seed: u64, bin: &str) -> Result<(Vec<Metric>, Tally), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let reference = workloads::run(workload, seed, 0.0, bin)?;
    let reference_ms = stats::quantile(&reference.wall_s, 0.5).unwrap_or(f64::NAN) * 1e3;
    let mut tally = reference.tally;
    let mut results: BTreeMap<&str, ProbeResult> = BTreeMap::new();
    for group in probe::GROUPS {
        let result = run_probe(group, workload, seed, bin, &mut tally);
        for (name, _) in probe::group_metrics(group) {
            if !result.metrics.contains_key(*name) {
                tally.record(Err(format!("probe {group} did not report {name}")));
            }
        }
        results.insert(group, result);
    }
    let misses = &results["scenario_miss"];
    let parts = &results["scenario_parts"];
    tally.record(match (&misses.digest, &parts.digest) {
        (Some(a), Some(b)) if a == b => Ok(()),
        (a, b) => Err(format!(
            "scenario bodies: handler digest {a:?}, engine digest {b:?}"
        )),
    });

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for result in results.values() {
        values.extend(result.metrics.clone());
    }
    let aux = |group: &str, key: &str| results[group].aux.get(key).copied().unwrap_or(f64::NAN);
    let (total, attributed) = match workload {
        Workload::PaperCold => (aux("paper", "total_ms"), aux("paper", "attributed_ms")),
        Workload::SweepLarge => (aux("sweep", "total_ms"), aux("sweep", "attributed_ms")),
        Workload::ServeWarm => (aux("serve", "total_ms"), aux("serve", "attributed_ms")),
        Workload::ScenarioMisses => {
            // The server's own body-cache ratio on this workload's replay.
            values.insert(
                "serve.body_hit_ratio".into(),
                aux("scenario_miss", "body_hit_ratio"),
            );
            let total = aux("scenario_miss", "total_ms");
            let covered = aux("scenario_parts", "parts_ms") / aux("scenario_miss", "handle_ms");
            (total, total * covered)
        }
    };
    let trace = [total, (total - attributed) / total, total / reference_ms];
    for ((name, _), value) in probe::TRACE.iter().zip(trace) {
        values.insert(name.to_string(), value);
    }

    let metrics = probe::per_layer()
        .into_iter()
        .map(|(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(f64::NAN),
            summary: None,
        })
        .collect();
    Ok((metrics, tally))
}

/// `--check`: each CLI workload at 1 and at 2 threads must print the same
/// bytes, and those bytes must match the recorded digest.
fn check(bin: &str) -> Result<i32, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        let Some((subcommand, digest)) = workload.cli() else {
            continue;
        };
        let mut outputs = Vec::new();
        for threads in [1, 2] {
            let args = workloads::with_threads(threads, subcommand);
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let run = procs::run_cli(bin, &args)?;
            println!(
                "{} --threads {threads}: exit {}, stdout {} ({:.3} s)",
                workload.name(),
                run.code,
                Digest::of(&run.stdout),
                run.wall.as_secs_f64()
            );
            ok &= run.code == 0;
            outputs.push(run.stdout);
        }
        let same = outputs[0] == outputs[1];
        let recorded = verify::check_cli(0, &outputs[1], digest);
        println!(
            "{}: 1 vs 2 threads {}; recorded digest {}",
            workload.name(),
            if same { "identical" } else { "DIFFER" },
            match &recorded {
                Ok(()) => "matches".to_string(),
                Err(e) => format!("MISMATCH ({e})"),
            }
        );
        ok &= same && recorded.is_ok();
    }
    Ok(if ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        let value = benchmark_json();
        let list = value
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_array())
            .expect("metric list");
        list.iter()
            .map(|m| {
                let field =
                    |f: &str| match m.as_object().and_then(|o| o.iter().find(|(k, _)| k == f)) {
                        Some((_, serde::Value::Str(s))) => s.clone(),
                        _ => panic!("metric without {f}"),
                    };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), pairs(&metrics::END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&probe::per_layer()));
    }

    #[test]
    fn the_traced_run_emits_every_per_layer_metric() {
        // The per-layer table the benchmark was specified with.
        let table = [
            "weather.wue_ms",
            "grid.year_ms",
            "core.simulate_cold_ms",
            "workload.year_ms",
            "core.lane_stats_ms",
            "workload.miniamr_ms",
            "workload.miniamr_cell_updates",
            "workload.miniamr_mcups",
            "scheduler.start_time_ms",
            "experiments.regen_ms",
            "experiments.fig13_ms",
            "experiments.ext01_ms",
            "experiments.render_ms",
            "core.year_misses",
            "core.year_hit_ratio",
            "scenario.sweep_parse_ms",
            "scenario.combination_us",
            "scenario.apply_overrides_us",
            "core.energy_key_us",
            "core.aggregate_ms",
            "core.lane_dedup_ratio",
            "core.workload_sims",
            "core.topn_ms",
            "scenario.evaluate_1t_ms",
            "scenario.sweep_unattributed_ms",
            "serve.parse_us",
            "serve.route_us",
            "serve.handle_us",
            "serve.encode_us",
            "serve.roundtrip_us",
            "serve.transport_us",
            "serve.body_hit_ratio",
            "scenario.spec_parse_us",
            "scenario.evaluate_ms",
            "serve.render_us",
            "serve.handle_miss_ms",
            "trace.unattributed_share",
            "trace.overhead_ratio",
        ];
        let emitted: Vec<&str> = probe::per_layer().iter().map(|&(n, _)| n).collect();
        for name in table {
            assert!(emitted.contains(&name), "{name} is not reported");
        }
        let mut unique = emitted.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), emitted.len(), "per-layer names repeat");
    }

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let value = benchmark_json();
        let names: Vec<String> = value
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "workloads"))
            .and_then(|(_, v)| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.as_object()?.iter().find(|(k, _)| k == "name"))
            .map(|(_, v)| match v {
                serde::Value::Str(s) => s.clone(),
                _ => String::new(),
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }
}
