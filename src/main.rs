//! `thirstyflops` — the command-line water-footprint estimation tool.
//!
//! ```text
//! thirstyflops footprint <system> [--seed N] [--json]   full annual footprint report
//! thirstyflops compare <a> <b> [--seed N] [--json]      two systems side by side (+ uncertainty overlap)
//! thirstyflops rank [--adjusted] [--seed N] [--json]    Water500-style ranking of all systems
//! thirstyflops scenario <system> [--seed N] [--json]    Fig. 14 energy-source what-ifs
//! thirstyflops scenario run <file> [--json]             evaluate a scenario spec (docs/SCENARIOS.md)
//! thirstyflops scenario sweep <file> [--top N] [--json] evaluate a cartesian sweep (batched; --top streams the best N rows)
//! thirstyflops sensitivity <system> [--seed N]          which parameters move the answer
//! thirstyflops lifecycle <system> --years N             break-even & amortized intensity
//! thirstyflops experiments [id ...] [--all] [--json]    regenerate paper tables/figures
//! thirstyflops systems [--json]                         list cataloged systems
//! thirstyflops serve [--addr HOST:PORT] [--workers N]   HTTP/JSON API (docs/SERVING.md)
//! thirstyflops loadgen --mix FILE [--requests N]        deterministic load replay + latency table
//! ```
//!
//! Every command accepts a global `--threads N` flag; without it the
//! worker count comes from `THIRSTYFLOPS_THREADS`, then
//! `RAYON_NUM_THREADS`, then the machine's available parallelism. Output
//! is bit-identical at every thread count (see `docs/CONCURRENCY.md`).
//! A global `--profile` flag prints a per-stage span profile to stderr
//! after any command, and `--trace-out FILE` exports the run's causal
//! span tree as Chrome `trace_event` JSON (see `docs/OBSERVABILITY.md`);
//! stdout is unchanged either way.
//!
//! `--json` output is shaped by `thirstyflops::serve::api` — the same
//! module the HTTP server renders through — so a CLI invocation and the
//! corresponding `GET /v1/...` response are byte-identical.

use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::sensitivity::{embodied_elasticities, operational_elasticities};
use thirstyflops::core::{AnnualReport, FootprintModel, LifecycleModel};
use thirstyflops::loadgen;
use thirstyflops::serve::api;
use thirstyflops::serve::{Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

fn run(raw_args: &[String]) -> i32 {
    // `--threads N`, `--no-sim-cache`, `--profile`, `--trace-out FILE`,
    // and `--trace-sample N` are global flags:
    // extract them wherever they appear (before or after the
    // subcommand) so positional parsing below never sees them.
    let (args, profile, trace_out) = match extract_global_flags(raw_args) {
        Ok(global) => {
            if let Some(n) = global.threads {
                // First-wins like rayon: the CLI flag runs before any
                // parallel work, so it takes precedence over the
                // environment defaults.
                let _ = rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build_global();
            }
            if global.no_sim_cache {
                // The escape hatch around core::simcache — every
                // simulation recomputes from scratch. Output is
                // byte-identical either way (tests/simcache.rs).
                thirstyflops::core::simcache::set_enabled(false);
            }
            if global.profile {
                // Span aggregation on the instrumented hot stages
                // (docs/OBSERVABILITY.md). Stdout stays byte-identical
                // either way; the report goes to stderr afterwards.
                thirstyflops::obs::span::set_enabled(true);
            }
            if global.profile || global.trace_out.is_some() {
                // The causal trace recorder rides along with either
                // sink: `--profile` wants the folded self-time rollup,
                // `--trace-out` the Chrome trace_event export. Stdout
                // stays byte-identical either way.
                thirstyflops::obs::trace::set_enabled(true);
            }
            if let Some(divisor) = global.trace_sample {
                thirstyflops::obs::trace::set_sample(divisor);
            }
            (global.args, global.profile, global.trace_out)
        }
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    // The CLI root trace context (trace id 0). Ordinal 0 always
    // satisfies the sampling rule (0 % N == 0), so `--trace-sample`
    // thins only `serve`'s per-request recording, never a CLI run's
    // own trace.
    let root_trace =
        thirstyflops::obs::trace::enabled().then(|| thirstyflops::obs::trace::begin(0, true));
    // `THIRSTYFLOPS_FAULTS=<plan.json|inline JSON>` arms the seeded
    // fault-injection sites in any command (a no-op when unset — the
    // sites cost one relaxed atomic load). `serve --fault-plan` and
    // `loadgen --chaos` are the explicit spellings (docs/ROBUSTNESS.md).
    if let Err(msg) = thirstyflops::faults::install_from_env() {
        eprintln!("THIRSTYFLOPS_FAULTS: {msg}");
        return 2;
    }
    let args = args.as_slice();
    let Some(cmd) = args.first() else {
        usage();
        return 2;
    };
    let code = match cmd.as_str() {
        "footprint" => cmd_footprint(args),
        "compare" => cmd_compare(args),
        "rank" => cmd_rank(args),
        "scenario" => cmd_scenario(args),
        "sensitivity" => cmd_sensitivity(args),
        "lifecycle" => cmd_lifecycle(args),
        "experiments" => cmd_experiments(args),
        "systems" => cmd_systems(args),
        "serve" => cmd_serve(args),
        "loadgen" => cmd_loadgen(args),
        "help" | "--help" | "-h" => {
            usage();
            0
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            usage();
            2
        }
    };
    // Close the root context before snapshotting so its stack is not
    // live while the report/export reads the ring.
    drop(root_trace);
    if profile {
        // Stderr, after the command's own output: `--profile --json`
        // pipelines can parse stdout and the profile independently.
        if json_flag(args) {
            eprint!("{}", thirstyflops::obs::report::profile_json());
        } else {
            eprint!("{}", thirstyflops::obs::report::profile_table());
        }
    }
    if let Some(path) = trace_out {
        // Stderr for the confirmation: stdout stays byte-identical with
        // tracing on or off (the determinism contract,
        // docs/OBSERVABILITY.md).
        let json = thirstyflops::obs::trace::chrome_trace_json(None);
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("--trace-out {path}: {e}");
                if code == 0 {
                    return 1;
                }
            }
        }
    }
    code
}

fn usage() {
    eprintln!(
        "thirstyflops — water footprint modeling for HPC systems (SC'25 reproduction)\n\n\
         USAGE:\n  \
         thirstyflops footprint <system> [--seed N] [--json]\n  \
         thirstyflops compare <a> <b> [--seed N] [--json]\n  \
         thirstyflops rank [--adjusted] [--seed N] [--json]\n  \
         thirstyflops scenario <system> [--seed N] [--json]\n  \
         thirstyflops scenario run <file> [--json]\n  \
         thirstyflops scenario sweep <file> [--top N] [--json]\n  \
         thirstyflops sensitivity <system> [--seed N]\n  \
         thirstyflops lifecycle <system> --years N [--seed N]\n  \
         thirstyflops experiments [id ...] [--all] [--json]\n  \
         thirstyflops systems [--json]\n  \
         thirstyflops serve [--addr HOST:PORT] [--workers N]\n  \
         \u{20}                  [--cache-entries N] [--cache-ttl SECS] [--log]\n  \
         \u{20}                  [--log-json] [--max-connections N]\n  \
         \u{20}                  [--request-timeout MS] [--drain-timeout SECS]\n  \
         \u{20}                  [--fault-plan FILE]\n  \
         thirstyflops loadgen --mix FILE [--requests N | --rate R --duration S]\n  \
         \u{20}                  [--connections N] [--workers N] [--addr HOST:PORT]\n  \
         \u{20}                  [--one-shot] [--bench-json] [--json]\n  \
         \u{20}                  [--retries N] [--request-timeout MS] [--chaos PLAN]\n\n\
         Every command also accepts --threads N (worker threads for the\n\
         parallel sweeps; defaults to THIRSTYFLOPS_THREADS, then the CPU\n\
         count), --no-sim-cache (recompute every simulation instead of\n\
         using the memoized substrate — docs/PERFORMANCE.md), --profile\n\
         (print a per-stage span profile, the registered counters, and\n\
         the folded-stack rollup to stderr afterwards —\n\
         docs/OBSERVABILITY.md; as JSON when --json is set), --trace-out\n\
         FILE (write the run's span tree as Chrome trace_event JSON,\n\
         viewable in about://tracing or Perfetto), and --trace-sample\n\
         N|1/N (record every N-th serve request, keyed off the\n\
         deterministic request ordinal). Results are identical at every\n\
         thread count, cached or not, profiled or traced or not, and\n\
         --json output is byte-identical to the HTTP API's\n\
         (docs/SERVING.md).\n\n\
         Systems: marconi, fugaku, polaris, frontier, aurora, elcapitan"
    );
}

/// The global flags every subcommand accepts, split out of the raw
/// argument list.
struct GlobalFlags {
    /// Arguments with the global flags removed.
    args: Vec<String>,
    /// `--threads N` worker-count override.
    threads: Option<usize>,
    /// `--no-sim-cache`: disable the memoized simulation substrate.
    no_sim_cache: bool,
    /// `--profile`: print the span/counter profile to stderr afterwards.
    profile: bool,
    /// `--trace-out FILE`: write the Chrome `trace_event` JSON export
    /// of the run's span tree to `FILE` afterwards.
    trace_out: Option<String>,
    /// `--trace-sample N` (or `1/N`): record every N-th request's spans
    /// in `serve`, keyed off the deterministic request ordinal.
    trace_sample: Option<u64>,
}

/// Splits the global `--threads N` / `--no-sim-cache` / `--profile` /
/// `--trace-out FILE` / `--trace-sample N` flags (any position) out of
/// the argument list.
fn extract_global_flags(args: &[String]) -> Result<GlobalFlags, String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut threads = None;
    let mut no_sim_cache = false;
    let mut profile = false;
    let mut trace_out = None;
    let mut trace_sample = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--no-sim-cache" {
            no_sim_cache = true;
            continue;
        }
        if arg == "--profile" {
            profile = true;
            continue;
        }
        if arg == "--trace-out" {
            let Some(value) = iter.next() else {
                return Err("--trace-out needs a file path, e.g. --trace-out trace.json".into());
            };
            trace_out = Some(value.clone());
            continue;
        }
        if arg == "--trace-sample" {
            let Some(value) = iter.next() else {
                return Err("--trace-sample needs a value, e.g. --trace-sample 1/8".into());
            };
            // `1/8` and `8` both mean "every 8th request".
            let divisor = value.strip_prefix("1/").unwrap_or(value);
            match divisor.parse::<u64>() {
                Ok(n) if n > 0 => trace_sample = Some(n),
                _ => {
                    return Err(format!(
                        "--trace-sample expects N or 1/N with positive N, got {value:?}"
                    ))
                }
            }
            continue;
        }
        if arg != "--threads" {
            rest.push(arg.clone());
            continue;
        }
        let Some(value) = iter.next() else {
            return Err("--threads needs a value, e.g. --threads 4".into());
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 => threads = Some(n),
            _ => {
                return Err(format!(
                    "--threads expects a positive integer, got {value:?}"
                ))
            }
        }
    }
    Ok(GlobalFlags {
        args: rest,
        threads,
        no_sim_cache,
        profile,
        trace_out,
        trace_sample,
    })
}

fn require_system(args: &[String], idx: usize) -> Result<SystemId, i32> {
    let Some(name) = args.get(idx) else {
        eprintln!("missing <system> argument");
        return Err(2);
    };
    // One alias table for CLI and server: SystemId::from_str in
    // crates/catalog.
    name.parse().map_err(|e| {
        eprintln!("{e} — try `thirstyflops systems`");
        2
    })
}

fn json_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn seed_of(args: &[String]) -> Result<u64, i32> {
    // Strict like the HTTP API's `?seed=` (router::Query::seed): a typo
    // must fail loudly, not silently serve the default year.
    match flag_value(args, "--seed") {
        None => Ok(2023),
        Some(raw) => raw.parse().map_err(|_| {
            eprintln!("--seed expects a non-negative integer, got {raw:?}");
            2
        }),
    }
}

fn ml(l: thirstyflops::units::Liters) -> f64 {
    l.value() / 1e6
}

fn cmd_footprint(args: &[String]) -> i32 {
    let id = match require_system(args, 1) {
        Ok(id) => id,
        Err(c) => return c,
    };
    let seed = match seed_of(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    if json_flag(args) {
        print!("{}", api::to_json(&api::footprint_payload(id, seed)));
        return 0;
    }
    let report = FootprintModel::reference(id).annual_report(seed);
    print_report(&report);
    0
}

fn print_report(r: &AnnualReport) {
    let spec = SystemSpec::reference(r.id);
    println!("{} — {} ({})", r.id, spec.location, spec.operator);
    println!("  embodied water      {:>12.2} ML", ml(r.embodied_total()));
    println!(
        "    processors {:.2} ML | memory+storage {:.2} ML | packaging {:.2} ML",
        ml(r.embodied.processors()),
        ml(r.embodied.memory_and_storage()),
        ml(r.embodied.packaging)
    );
    println!("  annual IT energy    {:>12.1} GWh", r.energy.value() / 1e6);
    println!(
        "  operational water   {:>12.2} ML  (direct {:.0}% / indirect {:.0}%)",
        ml(r.operational.total()),
        r.direct_share.percent(),
        100.0 - r.direct_share.percent()
    );
    println!(
        "  intensities          WUE {:.2} | EWF {:.2} | WI {:.2} | adjusted {:.2} L/kWh",
        r.mean_wue.value(),
        r.mean_ewf.value(),
        r.mean_wi.value(),
        r.adjusted_wi.value()
    );
}

fn cmd_compare(args: &[String]) -> i32 {
    let a = match require_system(args, 1) {
        Ok(id) => id,
        Err(c) => return c,
    };
    let b = match require_system(args, 2) {
        Ok(id) => id,
        Err(c) => return c,
    };
    let seed = match seed_of(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    if json_flag(args) {
        print!("{}", api::to_json(&api::compare_payload(a, b, seed)));
        return 0;
    }
    let ra = FootprintModel::reference(a).annual_report(seed);
    let rb = FootprintModel::reference(b).annual_report(seed);
    print_report(&ra);
    println!();
    print_report(&rb);

    // Uncertainty overlap: can we actually rank these two on operational
    // water, given the per-source EWF bands?
    let ia = api::operational_band(a, &ra);
    let ib = api::operational_band(b, &rb);
    println!();
    println!(
        "operational bands: {a} [{:.0}, {:.0}, {:.0}] ML vs {b} [{:.0}, {:.0}, {:.0}] ML",
        ia.lo / 1e6,
        ia.mid / 1e6,
        ia.hi / 1e6,
        ib.lo / 1e6,
        ib.mid / 1e6,
        ib.hi / 1e6
    );
    if ia.overlaps(&ib) {
        println!("bands OVERLAP — the ranking is not robust to EWF/WUE uncertainty");
    } else {
        println!("bands are disjoint — the ranking survives the factor uncertainty");
    }
    0
}

fn cmd_rank(args: &[String]) -> i32 {
    let adjusted = args.iter().any(|a| a == "--adjusted");
    let seed = match seed_of(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    // Text and JSON render the same payload — one ranking logic.
    let payload = api::rank_payload(adjusted, seed);
    if json_flag(args) {
        print!("{}", api::to_json(&payload));
        return 0;
    }
    if adjusted {
        println!("rank by scarcity-adjusted water intensity:");
        for e in &payload.entries {
            println!(
                "  {}. {:<12} adjusted WI {:>6.2} (raw {:.2}) L/kWh",
                e.rank, e.name, e.adjusted_wi, e.mean_wi
            );
        }
    } else {
        println!("rank by annual operational water:");
        for e in &payload.entries {
            println!(
                "  {}. {:<12} {:>9.1} ML  ({:.1} GWh, WI {:.2})",
                e.rank, e.name, e.operational_ml, e.energy_gwh, e.mean_wi
            );
        }
    }
    0
}

fn cmd_scenario(args: &[String]) -> i32 {
    // `scenario run <file>` / `scenario sweep <file>` drive the
    // declarative engine; any other first argument is the original
    // positional form — the built-in Fig. 14 what-if spec.
    match args.get(1).map(String::as_str) {
        Some("run") => return cmd_scenario_run(args),
        Some("sweep") => return cmd_scenario_sweep(args),
        _ => {}
    }
    let id = match require_system(args, 1) {
        Ok(id) => id,
        Err(c) => return c,
    };
    let seed = match seed_of(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    // Text and JSON render the same payload — one what-if computation.
    let payload = api::scenario_payload(id, seed);
    if json_flag(args) {
        print!("{}", api::to_json(&payload));
        return 0;
    }
    println!("{id}: energy-source what-ifs vs current mix");
    for row in &payload.scenarios {
        println!(
            "  {:<40} carbon {:>+7.0}%  water {:>+7.0}%",
            row.scenario, row.carbon_delta_percent, row.water_delta_percent
        );
    }
    0
}

/// Reads the spec file of `scenario run <file>` / `scenario sweep <file>`.
fn read_spec_file(args: &[String]) -> Result<String, i32> {
    let Some(path) = args.get(2).filter(|a| !a.starts_with("--")) else {
        eprintln!("missing <file> argument — a scenario spec JSON (docs/SCENARIOS.md)");
        return Err(2);
    };
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path:?}: {e}");
        2
    })
}

fn cmd_scenario_run(args: &[String]) -> i32 {
    let text = match read_spec_file(args) {
        Ok(t) => t,
        Err(c) => return c,
    };
    let spec = match thirstyflops::scenario::ScenarioSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let outcome = match api::scenario_run_payload(&spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if json_flag(args) {
        // Byte-identical to POST /v1/scenarios/run with this spec.
        print!("{}", api::to_json(&outcome));
        return 0;
    }
    println!(
        "{} — base {} (seed {}, spec {})",
        outcome.name, outcome.base, outcome.seed, outcome.fingerprint
    );
    print_deltas("  ", &outcome.scenario, &outcome.deltas);
    if let Some(lc) = &outcome.scenario.lifecycle {
        println!(
            "  lifecycle ({:.0}y)     total {:>10.2} ML  (upgrades {:.2} ML, embodied share \
             {:.1}%, amortized WI {:.3} L/kWh)",
            lc.lifetime_years,
            lc.lifetime_total_l / 1e6,
            lc.upgrade_embodied_l / 1e6,
            100.0 * lc.embodied_share,
            lc.amortized_wi_l_per_kwh
        );
    }
    0
}

fn print_deltas(
    indent: &str,
    scenario: &thirstyflops::scenario::ScenarioMetrics,
    d: &thirstyflops::scenario::ScenarioDeltas,
) {
    println!(
        "{indent}operational water   {:>10.2} ML  ({:>+6.1}% vs baseline)",
        scenario.operational_water_l / 1e6,
        d.operational_water_pct
    );
    println!(
        "{indent}scarcity-adjusted   {:>10.2} ML  ({:>+6.1}%)",
        scenario.scarcity_adjusted_water_l / 1e6,
        d.scarcity_adjusted_water_pct
    );
    println!(
        "{indent}carbon              {:>10.1} t   ({:>+6.1}%)",
        scenario.carbon_kg / 1e3,
        d.carbon_pct
    );
    println!(
        "{indent}water bill          {:>10.0} USD ({:>+6.1}%)",
        scenario.water_cost_usd, d.water_cost_pct
    );
}

fn cmd_scenario_sweep(args: &[String]) -> i32 {
    let text = match read_spec_file(args) {
        Ok(t) => t,
        Err(c) => return c,
    };
    // `--top N` streams the sweep: only the best N rows (by the spec's
    // `rank_by`, default operational water) are kept, and the expansion
    // ceiling rises to the streaming limit. Applied before the ceiling
    // check, exactly like an in-file `"top_n"`.
    let top = match flag_value(args, "--top") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!("--top expects a positive integer, got {raw:?}");
                return 2;
            }
        },
    };
    let sweep = match thirstyflops::scenario::SweepSpec::from_json_with_top(&text, top) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let report = match api::scenario_sweep_payload(&sweep) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if json_flag(args) {
        // Byte-identical to POST /v1/scenarios/sweep with this spec.
        print!("{}", api::to_json(&report));
        return 0;
    }
    println!(
        "{} — base {} (seed {}, {} scenarios, spec {})",
        report.name, report.base, report.seed, report.scenario_count, report.fingerprint
    );
    if let (Some(n), Some(rank)) = (report.top_n, report.rank_by.as_deref()) {
        println!(
            "  streaming top-{n}: best {} of {} rows by {rank} (ascending)",
            report.rows.len(),
            report.scenario_count
        );
    }
    println!(
        "  baseline: operational {:.2} ML, adjusted {:.2} ML, carbon {:.1} t, bill {:.0} USD",
        report.baseline.operational_water_l / 1e6,
        report.baseline.scarcity_adjusted_water_l / 1e6,
        report.baseline.carbon_kg / 1e3,
        report.baseline.water_cost_usd
    );
    for row in &report.rows {
        println!(
            "  {:<60} water {:>+7.1}%  adjusted {:>+7.1}%  carbon {:>+7.1}%  bill {:>+7.1}%",
            row.name,
            row.deltas.operational_water_pct,
            row.deltas.scarcity_adjusted_water_pct,
            row.deltas.carbon_pct,
            row.deltas.water_cost_pct
        );
    }
    0
}

fn cmd_sensitivity(args: &[String]) -> i32 {
    let id = match require_system(args, 1) {
        Ok(id) => id,
        Err(c) => return c,
    };
    let seed = match seed_of(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let report = FootprintModel::reference(id).annual_report(seed);
    println!("{id}: a 1% change in each parameter moves the total by…");
    println!("  operational water:");
    for e in operational_elasticities(&report) {
        println!("    {:<22} {:>+6.2}%", e.parameter, e.elasticity);
    }
    println!("  embodied water:");
    for e in embodied_elasticities(&report.embodied) {
        println!("    {:<22} {:>+6.2}%", e.parameter, e.elasticity);
    }
    0
}

fn cmd_lifecycle(args: &[String]) -> i32 {
    let id = match require_system(args, 1) {
        Ok(id) => id,
        Err(c) => return c,
    };
    let years: f64 = flag_value(args, "--years")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let seed = match seed_of(args) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let model = LifecycleModel::new(FootprintModel::reference(id).annual_report(seed));
    let report = match model.project(years) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!("{id}: {years}-year lifecycle");
    println!("  embodied            {:>10.2} ML", ml(report.embodied));
    println!("  operational (total) {:>10.2} ML", ml(report.operational));
    println!(
        "  embodied share      {:>10.1} %",
        100.0 * report.embodied_share()
    );
    println!(
        "  amortized intensity {:>10.3} L/kWh",
        report.amortized_intensity().value()
    );
    println!(
        "  break-even          {:>10.2} years of operation",
        model.break_even_years()
    );
    0
}

fn cmd_experiments(args: &[String]) -> i32 {
    let mut json = false;
    let mut all_flag = false;
    let mut ids: Vec<&str> = Vec::new();
    for arg in &args[1..] {
        match arg.as_str() {
            "--json" => json = true,
            "--all" => all_flag = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown experiments flag {flag:?}");
                return 2;
            }
            id => ids.push(id),
        }
    }

    if all_flag && !ids.is_empty() {
        eprintln!("pass either experiment ids or --all, not both");
        return 2;
    }
    let known = thirstyflops::experiments::ids();
    let unknown: Vec<&&str> = ids.iter().filter(|id| !known.contains(id)).collect();
    if !unknown.is_empty() {
        eprintln!("no matching experiment id: {unknown:?} (try one of {known:?})");
        return 2;
    }

    // One parallel sweep either way: the full batch for `--all` (or no
    // filter), or only the named artifacts — unselected figures are
    // never regenerated.
    let selected = if all_flag || ids.is_empty() {
        thirstyflops::experiments::all()
    } else {
        thirstyflops::experiments::select(&ids)
    };
    if json {
        // Same canonical rendering as `GET /v1/experiments/{id}`.
        print!("{}", api::to_json(&selected));
        return 0;
    }
    for e in &selected {
        println!("## {} — {}\n", e.id, e.title);
        println!("{}", e.frame.to_markdown());
        for note in &e.notes {
            println!("> {note}");
        }
        println!();
    }
    0
}

fn cmd_systems(args: &[String]) -> i32 {
    if json_flag(args) {
        print!("{}", api::to_json(&api::systems_payload()));
        return 0;
    }
    println!("cataloged systems:");
    for id in SystemId::ALL {
        let s = SystemSpec::reference(id);
        println!(
            "  {:<12} {:<28} {:>6} nodes  PUE {:<5} {}",
            id.to_string(),
            s.location,
            s.nodes,
            s.pue.value(),
            if s.has_gpus() { "GPU" } else { "CPU-only" }
        );
    }
    0
}

fn cmd_serve(args: &[String]) -> i32 {
    let mut config = ServerConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr;
    }
    if let Some(raw) = flag_value(args, "--workers") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => config.workers = n,
            _ => {
                eprintln!("--workers expects a positive integer, got {raw:?}");
                return 2;
            }
        }
    }
    if let Some(raw) = flag_value(args, "--cache-entries") {
        match raw.parse::<usize>() {
            // 0 = unbounded, any positive N = LRU bound.
            Ok(n) => config.cache_entries = n,
            _ => {
                eprintln!("--cache-entries expects a non-negative integer, got {raw:?}");
                return 2;
            }
        }
    }
    if let Some(raw) = flag_value(args, "--cache-ttl") {
        match raw.parse::<u64>() {
            Ok(0) => config.cache_ttl = None,
            Ok(secs) => config.cache_ttl = Some(std::time::Duration::from_secs(secs)),
            _ => {
                eprintln!("--cache-ttl expects a whole number of seconds, got {raw:?}");
                return 2;
            }
        }
    }
    if let Some(raw) = flag_value(args, "--max-connections") {
        match raw.parse::<usize>() {
            // 0 = unlimited, any positive N sheds the (N+1)-th
            // concurrent connection with a JSON 503.
            Ok(n) => config.max_connections = n,
            _ => {
                eprintln!("--max-connections expects a non-negative integer, got {raw:?}");
                return 2;
            }
        }
    }
    if args.iter().any(|a| a == "--log") {
        config.log_requests = true;
    }
    if args.iter().any(|a| a == "--log-json") {
        config.log_json = true;
    }
    // The serving path always runs with the trace recorder on: the ring
    // is bounded, recording is lock-minimal, and `GET /v1/trace` is only
    // useful when spans actually land. `--trace-sample 1/N` (global
    // flag) thins which requests record; ids echo on every response
    // regardless.
    thirstyflops::obs::trace::set_enabled(true);
    if let Some(raw) = flag_value(args, "--request-timeout") {
        match raw.parse::<u64>() {
            // 0 = no deadline (the default): a request may compute as
            // long as it needs. N > 0 converts any 200 still unwritten
            // after N ms into a JSON 504 with Retry-After.
            Ok(0) => config.limits.request_timeout = None,
            Ok(ms) => config.limits.request_timeout = Some(std::time::Duration::from_millis(ms)),
            _ => {
                eprintln!("--request-timeout expects a whole number of milliseconds, got {raw:?}");
                return 2;
            }
        }
    }
    let drain_timeout = match flag_value(args, "--drain-timeout") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(secs) if secs > 0 => Some(std::time::Duration::from_secs(secs)),
            _ => {
                eprintln!("--drain-timeout expects a positive number of seconds, got {raw:?}");
                return 2;
            }
        },
    };
    let faults = match flag_value(args, "--fault-plan") {
        None => thirstyflops::faults::global(),
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return 2;
                }
            };
            let plan = match thirstyflops::faults::FaultPlan::from_json(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return 2;
                }
            };
            let injector = std::sync::Arc::new(thirstyflops::faults::FaultInjector::mirrored(plan));
            // Install globally so the simcache-poison site (which lives
            // in core, below the serving layer) sees the same plan.
            thirstyflops::faults::install(std::sync::Arc::clone(&injector));
            Some(injector)
        }
    };
    const SERVE_FLAGS: [&str; 10] = [
        "--addr",
        "--workers",
        "--cache-entries",
        "--cache-ttl",
        "--log",
        "--log-json",
        "--max-connections",
        "--request-timeout",
        "--drain-timeout",
        "--fault-plan",
    ];
    for arg in &args[1..] {
        if arg.starts_with("--") && !SERVE_FLAGS.contains(&arg.as_str()) {
            eprintln!("unknown serve flag {arg:?}");
            return 2;
        }
    }
    let server = match Server::bind_with_faults(&config, faults) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", config.addr);
            return 1;
        }
    };
    // One parseable line so scripts (and the serve-smoke CI step) can
    // discover an ephemeral port; then serve until the process is killed.
    println!(
        "listening on http://{} ({} workers) — endpoints in docs/SERVING.md",
        server.local_addr(),
        server.workers()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match drain_timeout {
        None => {
            server.wait();
            0
        }
        Some(timeout) => {
            // SIGTERM-style lifecycle without signal handling (the
            // workspace is std-only): stdin EOF is the drain trigger.
            // An orchestrator holds stdin open while the server should
            // run and closes it (or exits) to start the drain; /readyz
            // flips to 503 immediately, in-flight responses complete,
            // and the process exits once drained or at the timeout.
            let mut sink = String::new();
            while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
            eprintln!("stdin closed — draining (timeout {}s)", timeout.as_secs());
            if server.drain(timeout) {
                eprintln!("drained cleanly");
                0
            } else {
                eprintln!("drain timed out with connections still in flight");
                1
            }
        }
    }
}

fn cmd_loadgen(args: &[String]) -> i32 {
    const LOADGEN_FLAGS: [&str; 13] = [
        "--mix",
        "--requests",
        "--duration",
        "--rate",
        "--connections",
        "--workers",
        "--addr",
        "--one-shot",
        "--bench-json",
        "--json",
        "--chaos",
        "--retries",
        "--request-timeout",
    ];
    for arg in &args[1..] {
        if arg.starts_with("--") && !LOADGEN_FLAGS.contains(&arg.as_str()) {
            eprintln!("unknown loadgen flag {arg:?}");
            return 2;
        }
    }
    let Some(mix_path) = flag_value(args, "--mix") else {
        eprintln!("loadgen needs --mix FILE (recorded mixes live in examples/loadmix/)");
        return 2;
    };
    let text = match std::fs::read_to_string(&mix_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {mix_path}: {e}");
            return 2;
        }
    };
    let mix = match loadgen::MixSpec::from_json(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{mix_path}: {e}");
            return 2;
        }
    };

    let mut config = loadgen::RunConfig::default();
    if let Some(raw) = flag_value(args, "--connections") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => config.connections = n,
            _ => {
                eprintln!("--connections expects a positive integer, got {raw:?}");
                return 2;
            }
        }
    }
    if let Some(raw) = flag_value(args, "--workers") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => config.workers = n,
            _ => {
                eprintln!("--workers expects a positive integer, got {raw:?}");
                return 2;
            }
        }
    }
    if let Some(raw) = flag_value(args, "--rate") {
        match raw.parse::<f64>() {
            Ok(r) if r > 0.0 && r.is_finite() => config.rate = r,
            _ => {
                eprintln!("--rate expects a positive requests/second, got {raw:?}");
                return 2;
            }
        }
    }
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = Some(addr);
    }
    if let Some(raw) = flag_value(args, "--retries") {
        match raw.parse::<u32>() {
            Ok(n) => config.retries = n,
            _ => {
                eprintln!("--retries expects a non-negative integer, got {raw:?}");
                return 2;
            }
        }
    }
    if let Some(raw) = flag_value(args, "--request-timeout") {
        match raw.parse::<u64>() {
            Ok(0) => config.request_timeout = None,
            Ok(ms) => config.request_timeout = Some(std::time::Duration::from_millis(ms)),
            _ => {
                eprintln!("--request-timeout expects a whole number of milliseconds, got {raw:?}");
                return 2;
            }
        }
    }
    // `--chaos plan.json`: install the fault plan process-globally (the
    // in-process server and the core simcache both pick it up), replay
    // the mix under it, and verify the fail-closed invariant — every
    // 200 byte-identical, every error a deliberate, well-formed 5xx.
    if let Some(plan_path) = flag_value(args, "--chaos") {
        if config.addr.is_some() {
            eprintln!(
                "--chaos needs the in-process server (the plan cannot be installed into a \
                 remote --addr target)"
            );
            return 2;
        }
        let text = match std::fs::read_to_string(&plan_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {plan_path}: {e}");
                return 2;
            }
        };
        let plan = match thirstyflops::faults::FaultPlan::from_json(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{plan_path}: {e}");
                return 2;
            }
        };
        thirstyflops::faults::install(std::sync::Arc::new(
            thirstyflops::faults::FaultInjector::mirrored(plan),
        ));
        config.chaos = true;
    }
    config.keep_alive = !args.iter().any(|a| a == "--one-shot");
    // The plan length: explicit `--requests N`, or `--rate R --duration S`
    // converted up front so the replay is a fixed, deterministic count
    // either way (docs/CONCURRENCY.md).
    config.requests = match (
        flag_value(args, "--requests"),
        flag_value(args, "--duration"),
    ) {
        (Some(raw), _) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--requests expects a positive integer, got {raw:?}");
                return 2;
            }
        },
        (None, Some(raw)) => {
            if config.rate <= 0.0 {
                eprintln!("--duration needs --rate R to fix the request count");
                return 2;
            }
            match raw.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => ((config.rate * s).round() as usize).max(1),
                _ => {
                    eprintln!("--duration expects a positive number of seconds, got {raw:?}");
                    return 2;
                }
            }
        }
        (None, None) => config.requests,
    };

    if config.chaos {
        return match loadgen::run_with_stats(&mix, &config) {
            Ok((report, stats)) => {
                // Fail closed: any byte mismatch or unrecovered request
                // is a contract violation (docs/ROBUSTNESS.md).
                let failed = report.mismatches > 0 || report.errors > 0 || stats.unrecovered > 0;
                if json_flag(args) {
                    use serde::Serialize as _;
                    let combined = serde::Value::Object(vec![
                        ("load".to_string(), report.to_value()),
                        ("chaos".to_string(), stats.to_value()),
                    ]);
                    print!("{}", api::to_json(&combined));
                } else {
                    print!("{}", loadgen::human_table(&report));
                    print!("{}", loadgen::chaos_table(&stats));
                }
                if args.iter().any(|a| a == "--bench-json") {
                    let path = std::path::Path::new("BENCH_serve.json");
                    match loadgen::report::write_chaos_bench(path, &stats) {
                        // Stderr: chaos `--json --bench-json` pipelines
                        // parse stdout as one JSON document.
                        Ok(_) => eprintln!("wrote {}", path.display()),
                        Err(e) => {
                            eprintln!("loadgen: {e}");
                            return 1;
                        }
                    }
                }
                i32::from(failed)
            }
            Err(e) => {
                eprintln!("loadgen: {e}");
                1
            }
        };
    }

    if args.iter().any(|a| a == "--bench-json") {
        // The tracked trajectory: replay the mix one-shot (the recorded
        // baseline discipline) and keep-alive (current), then write
        // BENCH_serve.json with the baseline preserved verbatim.
        let mut failed = false;
        let mut reports = Vec::new();
        for keep_alive in [false, true] {
            let pass = loadgen::RunConfig {
                keep_alive,
                ..config.clone()
            };
            match loadgen::run(&mix, &pass) {
                Ok(report) => {
                    print!("{}", loadgen::human_table(&report));
                    failed |= report.mismatches > 0 || report.errors > 0;
                    reports.push(report);
                }
                Err(e) => {
                    eprintln!("loadgen: {e}");
                    return 1;
                }
            }
        }
        let path = std::path::Path::new("BENCH_serve.json");
        match loadgen::write_bench_json(path, &reports[0], &reports[1]) {
            Ok(_) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return 1;
            }
        }
        return i32::from(failed);
    }

    match loadgen::run(&mix, &config) {
        Ok(report) => {
            if json_flag(args) {
                print!("{}", api::to_json(&report));
            } else {
                print!("{}", loadgen::human_table(&report));
            }
            // Zero mismatches is the contract; a nonzero exit makes CI
            // and scripts fail loudly on any drift.
            i32::from(report.mismatches > 0 || report.errors > 0)
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            1
        }
    }
}
