//! `thirstyflops` — the command-line water-footprint estimation tool.
//!
//! ```text
//! thirstyflops footprint <system> [--seed N] [--json]
//! thirstyflops compare <a> <b> [--seed N] [--json]
//! thirstyflops rank [--adjusted] [--seed N] [--json]
//! thirstyflops scenario <system> [--seed N] [--json]
//! thirstyflops scenario run <file> [--json]
//! thirstyflops scenario sweep <file> [--top N] [--json]
//! thirstyflops sensitivity <system> [--seed N]
//! thirstyflops lifecycle <system> [--years N] [--seed N]
//! thirstyflops experiments [<id> ...] [--all] [--json]
//! thirstyflops systems [--json]
//! thirstyflops serve [--addr HOST:PORT] [--workers N] [--cache-entries N]
//!                    [--cache-ttl SECS] [--log-json] [--max-connections N]
//!                    [--request-timeout MS] [--drain-timeout SECS]
//!                    [--fault-plan FILE]
//! thirstyflops loadgen [--mix FILE] [--requests N] [--rate R] [--duration S]
//!                      [--connections N] [--workers N] [--addr HOST:PORT]
//!                      [--one-shot] [--json] [--chaos PLAN] [--retries N]
//!                      [--request-timeout MS]
//! thirstyflops help
//! ```
//!
//! The list above is rendered from [`COMMANDS`], the one flag table the
//! parser, the checks and `thirstyflops help` all read; a unit test
//! keeps it in step. An unknown flag, a value flag without a value, a
//! repeated flag, or a wrong number of positionals exits 2 before the
//! command does anything.
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

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::sensitivity::{embodied_elasticities, operational_elasticities};
use thirstyflops::core::{AnnualReport, FootprintModel, LifecycleModel};
use thirstyflops::faults::{FaultInjector, FaultPlan};
use thirstyflops::loadgen;
use thirstyflops::serve::api;
use thirstyflops::serve::{Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

/// One flag: its `--name`, the placeholder of its value (`None` for a
/// switch), and its help line.
struct Flag {
    name: &'static str,
    metavar: Option<&'static str>,
    help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: None,
        help,
    }
}

const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        help,
    }
}

impl Flag {
    /// `--name META` or `--name`.
    fn spelling(&self) -> String {
        match self.metavar {
            Some(meta) => format!("{} {meta}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// One command: its name (two words for `scenario run`/`sweep`), its
/// positionals as the synopsis spells them (`<system>`, `<a> <b>`, or
/// `[<id> ...]` for any number), its flags, and the function that runs it.
struct Command {
    name: &'static str,
    args: &'static str,
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Invocation) -> Result<i32, String>,
}

impl Command {
    /// The positionals that must be present: `<name>` words.
    fn required(&self) -> impl Iterator<Item = &'static str> {
        self.args.split_whitespace().filter(|w| w.starts_with('<'))
    }

    /// Whether any number of further positionals may follow.
    fn variadic(&self) -> bool {
        self.args.ends_with("...]")
    }
}

/// Flags every command accepts, anywhere on the command line.
#[rustfmt::skip]
const GLOBAL_FLAGS: &[Flag] = &[
    value("--threads", "N", "worker threads (default THIRSTYFLOPS_THREADS, then the CPU count)"),
    switch("--profile", "span profile, counters and folded stacks on stderr afterwards"),
    value("--trace-out", "FILE", "write the span tree as Chrome trace_event JSON"),
    value("--trace-sample", "N|1/N", "record every N-th serve request (by request ordinal)"),
];

const SEED: Flag = value("--seed", "N", "simulation seed (default 2023)");
const JSON: Flag = switch("--json", "print JSON instead of text");

/// The command table: what the parser accepts and what `help` prints.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "footprint", args: "<system>", flags: &[SEED, JSON],
        about: "full annual footprint report", run: cmd_footprint },
    Command { name: "compare", args: "<a> <b>", flags: &[SEED, JSON],
        about: "two systems side by side (+ uncertainty overlap)", run: cmd_compare },
    Command { name: "rank", args: "", flags: &[
            switch("--adjusted", "rank by scarcity-adjusted water intensity"), SEED, JSON],
        about: "Water500-style ranking of all systems", run: cmd_rank },
    Command { name: "scenario", args: "<system>", flags: &[SEED, JSON],
        about: "Fig. 14 energy-source what-ifs", run: cmd_scenario },
    Command { name: "scenario run", args: "<file>", flags: &[JSON],
        about: "evaluate a scenario spec (docs/SCENARIOS.md)", run: cmd_scenario_run },
    Command { name: "scenario sweep", args: "<file>", flags: &[
            value("--top", "N", "stream the sweep, keeping the best N rows"), JSON],
        about: "evaluate a cartesian sweep (batched kernel)", run: cmd_scenario_sweep },
    Command { name: "sensitivity", args: "<system>", flags: &[SEED],
        about: "which parameters move the answer", run: cmd_sensitivity },
    Command { name: "lifecycle", args: "<system>", flags: &[
            value("--years", "N", "service lifetime (default 5)"), SEED],
        about: "break-even & amortized intensity", run: cmd_lifecycle },
    Command { name: "experiments", args: "[<id> ...]", flags: &[
            switch("--all", "every artifact (the default without ids)"), JSON],
        about: "regenerate paper tables/figures", run: cmd_experiments },
    Command { name: "systems", args: "", flags: &[JSON],
        about: "list cataloged systems", run: cmd_systems },
    Command { name: "serve", args: "", flags: &[
            value("--addr", "HOST:PORT", "listen address (default 127.0.0.1:7979)"),
            value("--workers", "N", "request worker threads (default CPU count)"),
            value("--cache-entries", "N", "body-cache LRU bound (0 = unbounded)"),
            value("--cache-ttl", "SECS", "expire cached bodies (0 = never)"),
            switch("--log-json", "one strict-JSON access-log line per request"),
            value("--max-connections", "N", "shed connections past N (0 = unlimited)"),
            value("--request-timeout", "MS", "answer 504 past MS (0 = no deadline)"),
            value("--drain-timeout", "SECS", "drain on stdin EOF within SECS"),
            value("--fault-plan", "FILE", "inject seeded faults (docs/ROBUSTNESS.md)"),
        ],
        about: "HTTP/JSON API (docs/SERVING.md)", run: cmd_serve },
    Command { name: "loadgen", args: "", flags: &[
            value("--mix", "FILE", "request mix to replay (required)"),
            value("--requests", "N", "requests to replay (default 1000)"),
            value("--rate", "R", "pace to R requests/second"),
            value("--duration", "S", "with --rate: replay R×S requests"),
            value("--connections", "N", "client connections (default 4)"),
            value("--workers", "N", "in-process server workers (default 2)"),
            value("--addr", "HOST:PORT", "replay against a running server"),
            switch("--one-shot", "one request per connection"),
            JSON,
            value("--chaos", "PLAN", "replay under a fault plan, fail closed"),
            value("--retries", "N", "client retries per request (default 0)"),
            value("--request-timeout", "MS", "client deadline (0 = none)"),
        ],
        about: "deterministic load replay + latency table", run: cmd_loadgen },
    Command { name: "help", args: "", flags: &[],
        about: "print every command with its flags", run: cmd_help },
];

/// A parsed, structurally valid command line: every flag is declared by
/// its command (or is global), every value flag has its value, no flag
/// repeats, and the positional count fits.
struct Invocation {
    command: &'static Command,
    args: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Invocation {
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `name` parsed as `T`; `expects` names what a
    /// malformed value should have been.
    fn get<T: FromStr>(&self, name: &str, expects: &str) -> Result<Option<T>, String> {
        self.get_if(name, expects, |_| true)
    }

    /// Like [`get`](Self::get), also rejecting values `ok` refuses.
    fn get_if<T: FromStr>(
        &self,
        name: &str,
        expects: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|raw| {
                raw.parse()
                    .ok()
                    .filter(ok)
                    .ok_or_else(|| format!("{name} expects {expects}, got {raw:?}"))
            })
            .transpose()
    }
}

/// Parses the whole command line against [`COMMANDS`] and
/// [`GLOBAL_FLAGS`]. Global flags may appear anywhere; the command's
/// words come first among the rest.
fn parse(argv: &[String]) -> Result<Invocation, String> {
    let mut flags = Vec::new();
    let mut rest = Vec::new();
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        match GLOBAL_FLAGS.iter().find(|f| f.name == token) {
            Some(flag) => take_flag(flag, &mut tokens, &mut flags)?,
            None => rest.push(token),
        }
    }
    let Some(first) = rest.first() else {
        return Err(usage());
    };
    let first = match first.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let two_words = rest.get(1).map(|second| format!("{first} {second}"));
    let (command, words) = match COMMANDS
        .iter()
        .find(|c| Some(c.name) == two_words.as_deref())
    {
        Some(command) => (command, 2),
        None => match COMMANDS.iter().find(|c| c.name == first) {
            Some(command) => (command, 1),
            None => return Err(format!("unknown command {first:?}\n\n{}", usage())),
        },
    };
    let mut args = Vec::new();
    let mut tokens = rest.into_iter().skip(words);
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            args.push(token.clone());
            continue;
        }
        let Some(flag) = command.flags.iter().find(|f| f.name == token) else {
            return Err(format!(
                "unknown {} flag {token:?} (`thirstyflops help` lists every flag)",
                command.name
            ));
        };
        take_flag(flag, &mut tokens, &mut flags)?;
    }
    let usage = || synopsis(command);
    if let Some(missing) = command.required().nth(args.len()) {
        return Err(format!("missing {missing} argument — usage: {}", usage()));
    }
    if !command.variadic() {
        if let Some(extra) = args.get(command.required().count()) {
            return Err(format!(
                "unexpected argument {extra:?} — usage: {}",
                usage()
            ));
        }
    }
    Ok(Invocation {
        command,
        args,
        flags,
    })
}

/// Records one occurrence of `flag`, taking its value from `tokens`.
fn take_flag<'a>(
    flag: &'static Flag,
    tokens: &mut impl Iterator<Item = &'a String>,
    flags: &mut Vec<(&'static str, Option<String>)>,
) -> Result<(), String> {
    if flags.iter().any(|(name, _)| *name == flag.name) {
        return Err(format!("{} given more than once", flag.name));
    }
    let value = match flag.metavar {
        None => None,
        Some(meta) => match tokens.next() {
            Some(v) if !v.starts_with("--") => Some(v.clone()),
            _ => return Err(format!("{} needs a value: {} {meta}", flag.name, flag.name)),
        },
    };
    flags.push((flag.name, value));
    Ok(())
}

/// `thirstyflops <name> <args> [--flag META] ...`, wrapped at 78
/// columns under the first argument.
fn synopsis(command: &Command) -> String {
    let head = format!("thirstyflops {}", command.name);
    let indent = head.len() + 1;
    let flags = command.flags.iter().map(|f| format!("[{}]", f.spelling()));
    let mut lines = vec![head];
    for word in command
        .args
        .split_whitespace()
        .map(str::to_string)
        .chain(flags)
    {
        let line = lines.last_mut().expect("at least the head");
        if line.len() + 1 + word.len() > 78 {
            lines.push(format!("{:indent$}{word}", ""));
        } else {
            *line += &format!(" {word}");
        }
    }
    lines.join("\n")
}

fn flag_lines(flags: &[Flag]) -> String {
    flags
        .iter()
        .map(|f| format!("      {:<22} {}\n", f.spelling(), f.help))
        .collect()
}

/// The help text, rendered from the command table.
fn usage() -> String {
    let mut out = String::from(
        "thirstyflops — water footprint modeling for HPC systems (SC'25 reproduction)\n\nUSAGE:\n",
    );
    for command in COMMANDS {
        for line in synopsis(command).lines() {
            out += &format!("  {line}\n");
        }
        out += &format!("      {}\n{}", command.about, flag_lines(command.flags));
    }
    out += "\nGLOBAL FLAGS (any command, any position):\n";
    out += &flag_lines(GLOBAL_FLAGS);
    out += "\nResults are identical at every thread count, cached or not, profiled or\n\
            traced or not; --json output is byte-identical to the HTTP API's.\n\n\
            Systems: marconi, fugaku, polaris, frontier, aurora, elcapitan";
    out
}

fn run(argv: &[String]) -> i32 {
    match parse(argv).and_then(|inv| execute(&inv)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

/// Applies the global flags, runs the command, then writes the profile
/// and trace reports.
fn execute(inv: &Invocation) -> Result<i32, String> {
    let threads = inv.get_if("--threads", "a positive integer", |&n: &usize| n > 0)?;
    // `1/8` and `8` both mean "every 8th request".
    let trace_sample = match inv.value("--trace-sample") {
        None => None,
        Some(raw) => Some(
            raw.strip_prefix("1/")
                .unwrap_or(raw)
                .parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    format!("--trace-sample expects N or 1/N with positive N, got {raw:?}")
                })?,
        ),
    };
    if let Some(n) = threads {
        // First-wins like rayon: the CLI flag runs before any parallel
        // work, so it takes precedence over the environment defaults.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }
    let profile = inv.has("--profile");
    let trace_out = inv.value("--trace-out");
    if profile || trace_out.is_some() {
        // The one span sink (docs/OBSERVABILITY.md): `--profile` reads
        // its per-path rollup, `--trace-out` its Chrome trace_event
        // export. Stdout stays byte-identical either way; the report goes
        // to stderr afterwards.
        thirstyflops::obs::trace::set_enabled(true);
    }
    if let Some(divisor) = trace_sample {
        thirstyflops::obs::trace::set_sample(divisor);
    }
    // `THIRSTYFLOPS_FAULTS=<plan.json|inline JSON>` arms the seeded
    // fault-injection sites in any command (a no-op when unset — the
    // sites cost one relaxed atomic load). `serve --fault-plan` and
    // `loadgen --chaos` are the explicit spellings (docs/ROBUSTNESS.md).
    thirstyflops::faults::install_from_env()
        .map_err(|msg| format!("THIRSTYFLOPS_FAULTS: {msg}"))?;
    // The CLI root trace context (trace id 0). Ordinal 0 always
    // satisfies the sampling rule (0 % N == 0), so `--trace-sample`
    // thins only `serve`'s per-request recording, never a CLI run's
    // own trace.
    let root_trace =
        thirstyflops::obs::trace::enabled().then(|| thirstyflops::obs::trace::begin(0, true));
    let code = (inv.command.run)(inv)?;
    // Close the root context before snapshotting so its stack is not
    // live while the report/export reads the ring.
    drop(root_trace);
    if profile {
        // Stderr, after the command's own output: `--profile --json`
        // pipelines can parse stdout and the profile independently.
        if inv.has("--json") {
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
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("--trace-out {path}: {e}");
                if code == 0 {
                    return Ok(1);
                }
            }
        }
    }
    Ok(code)
}

fn cmd_help(_: &Invocation) -> Result<i32, String> {
    eprintln!("{}", usage());
    Ok(0)
}

fn system(name: &str) -> Result<SystemId, String> {
    // One alias table for CLI and server: SystemId::from_str in
    // crates/catalog.
    name.parse()
        .map_err(|e| format!("{e} — try `thirstyflops systems`"))
}

fn seed(inv: &Invocation) -> Result<u64, String> {
    // Strict like the HTTP API's `?seed=` (router::Query::seed): a typo
    // must fail loudly, not silently serve the default year.
    Ok(inv.get("--seed", "a non-negative integer")?.unwrap_or(2023))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
}

fn read_fault_plan(path: &str) -> Result<FaultPlan, String> {
    FaultPlan::from_json(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

fn ml(l: thirstyflops::units::Liters) -> f64 {
    l.value() / 1e6
}

fn cmd_footprint(inv: &Invocation) -> Result<i32, String> {
    let id = system(&inv.args[0])?;
    let seed = seed(inv)?;
    if inv.has("--json") {
        print!("{}", api::to_json(&api::footprint_payload(id, seed)));
        return Ok(0);
    }
    let report = FootprintModel::reference(id).annual_report(seed);
    print_report(&report);
    Ok(0)
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

fn cmd_compare(inv: &Invocation) -> Result<i32, String> {
    let a = system(&inv.args[0])?;
    let b = system(&inv.args[1])?;
    let seed = seed(inv)?;
    let payload = api::compare_payload(a, b, seed);
    if inv.has("--json") {
        print!("{}", api::to_json(&payload));
        return Ok(0);
    }
    print_report(&payload.a.report);
    println!();
    print_report(&payload.b.report);

    // Uncertainty overlap: can we actually rank these two on operational
    // water, given the per-source EWF bands?
    let (ia, ib) = (payload.operational_band_a, payload.operational_band_b);
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
    Ok(0)
}

fn cmd_rank(inv: &Invocation) -> Result<i32, String> {
    let adjusted = inv.has("--adjusted");
    // Text and JSON render the same payload — one ranking logic.
    let payload = api::rank_payload(adjusted, seed(inv)?);
    if inv.has("--json") {
        print!("{}", api::to_json(&payload));
        return Ok(0);
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
    Ok(0)
}

/// The built-in Fig. 14 what-if spec; `scenario run`/`scenario sweep`
/// drive the declarative engine.
fn cmd_scenario(inv: &Invocation) -> Result<i32, String> {
    let id = system(&inv.args[0])?;
    // Text and JSON render the same payload — one what-if computation.
    let payload = api::scenario_payload(id, seed(inv)?);
    if inv.has("--json") {
        print!("{}", api::to_json(&payload));
        return Ok(0);
    }
    println!("{id}: energy-source what-ifs vs current mix");
    for row in &payload.scenarios {
        println!(
            "  {:<40} carbon {:>+7.0}%  water {:>+7.0}%",
            row.scenario, row.carbon_delta_percent, row.water_delta_percent
        );
    }
    Ok(0)
}

fn cmd_scenario_run(inv: &Invocation) -> Result<i32, String> {
    let text = read_file(&inv.args[0])?;
    let spec = thirstyflops::scenario::ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?;
    let outcome = api::scenario_run_payload(&spec).map_err(|e| e.to_string())?;
    if inv.has("--json") {
        // Byte-identical to POST /v1/scenarios/run with this spec.
        print!("{}", api::to_json(&outcome));
        return Ok(0);
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
    Ok(0)
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

fn cmd_scenario_sweep(inv: &Invocation) -> Result<i32, String> {
    // `--top N` streams the sweep: only the best N rows (by the spec's
    // `rank_by`, default operational water) are kept, and the expansion
    // ceiling rises to the streaming limit. Applied before the ceiling
    // check, exactly like an in-file `"top_n"`.
    let top = inv.get_if("--top", "a positive integer", |&n: &u64| n > 0)?;
    let text = read_file(&inv.args[0])?;
    let sweep = thirstyflops::scenario::SweepSpec::from_json_with_top(&text, top)
        .map_err(|e| e.to_string())?;
    let report = api::scenario_sweep_payload(&sweep).map_err(|e| e.to_string())?;
    if inv.has("--json") {
        // Byte-identical to POST /v1/scenarios/sweep with this spec.
        print!("{}", api::to_json(&report));
        return Ok(0);
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
    Ok(0)
}

fn cmd_sensitivity(inv: &Invocation) -> Result<i32, String> {
    let id = system(&inv.args[0])?;
    let report = FootprintModel::reference(id).annual_report(seed(inv)?);
    println!("{id}: a 1% change in each parameter moves the total by…");
    println!("  operational water:");
    for e in operational_elasticities(&report) {
        println!("    {:<22} {:>+6.2}%", e.parameter, e.elasticity);
    }
    println!("  embodied water:");
    for e in embodied_elasticities(&report.embodied) {
        println!("    {:<22} {:>+6.2}%", e.parameter, e.elasticity);
    }
    Ok(0)
}

fn cmd_lifecycle(inv: &Invocation) -> Result<i32, String> {
    let id = system(&inv.args[0])?;
    let years: f64 = inv.get("--years", "a number of years")?.unwrap_or(5.0);
    let model = LifecycleModel::new(FootprintModel::reference(id).annual_report(seed(inv)?));
    let report = model.project(years).map_err(|e| e.to_string())?;
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
    Ok(0)
}

fn cmd_experiments(inv: &Invocation) -> Result<i32, String> {
    let ids: Vec<&str> = inv.args.iter().map(String::as_str).collect();
    if inv.has("--all") && !ids.is_empty() {
        return Err("pass either experiment ids or --all, not both".into());
    }
    let known = thirstyflops::experiments::ids();
    let unknown: Vec<&&str> = ids.iter().filter(|id| !known.contains(id)).collect();
    if !unknown.is_empty() {
        return Err(format!(
            "no matching experiment id: {unknown:?} (try one of {known:?})"
        ));
    }

    // One parallel sweep either way: the full batch for `--all` (or no
    // filter), or only the named artifacts — unselected figures are
    // never regenerated.
    let selected = if ids.is_empty() {
        thirstyflops::experiments::all()
    } else {
        thirstyflops::experiments::select(&ids)
    };
    if inv.has("--json") {
        // Same canonical rendering as `GET /v1/experiments/{id}`.
        print!("{}", api::to_json(&selected));
        return Ok(0);
    }
    for e in &selected {
        println!("## {} — {}\n", e.id, e.title);
        println!("{}", e.frame.to_markdown());
        for note in &e.notes {
            println!("> {note}");
        }
        println!();
    }
    Ok(0)
}

fn cmd_systems(inv: &Invocation) -> Result<i32, String> {
    if inv.has("--json") {
        print!("{}", api::to_json(&api::systems_payload()));
        return Ok(0);
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
    Ok(0)
}

fn cmd_serve(inv: &Invocation) -> Result<i32, String> {
    let mut config = ServerConfig::default();
    if let Some(addr) = inv.value("--addr") {
        config.addr = addr.to_string();
    }
    if let Some(n) = inv.get_if("--workers", "a positive integer", |&n: &usize| n > 0)? {
        config.workers = n;
    }
    // 0 = unbounded, any positive N = LRU bound.
    if let Some(n) = inv.get("--cache-entries", "a non-negative integer")? {
        config.cache_entries = n;
    }
    if let Some(secs) = inv.get("--cache-ttl", "a whole number of seconds")? {
        config.cache_ttl = (secs > 0).then(|| Duration::from_secs(secs));
    }
    // 0 = unlimited, any positive N sheds the (N+1)-th concurrent
    // connection with a JSON 503.
    if let Some(n) = inv.get("--max-connections", "a non-negative integer")? {
        config.max_connections = n;
    }
    config.log_json = inv.has("--log-json");
    // 0 = no deadline (the default): a request may compute as long as it
    // needs. N > 0 converts any 200 still unwritten after N ms into a
    // JSON 504 with Retry-After.
    if let Some(ms) = inv.get("--request-timeout", "a whole number of milliseconds")? {
        config.limits.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    let drain_timeout = inv
        .get_if(
            "--drain-timeout",
            "a positive number of seconds",
            |&s: &u64| s > 0,
        )?
        .map(Duration::from_secs);
    let faults = match inv.value("--fault-plan") {
        None => thirstyflops::faults::global(),
        Some(path) => {
            let injector = Arc::new(FaultInjector::mirrored(read_fault_plan(path)?));
            // Install globally so the simcache-poison site (which lives
            // in core, below the serving layer) sees the same plan.
            thirstyflops::faults::install(Arc::clone(&injector));
            Some(injector)
        }
    };
    // The serving path always runs with the trace recorder on: the ring
    // is bounded, recording is lock-minimal, and `GET /v1/trace` is only
    // useful when spans actually land. `--trace-sample 1/N` (global
    // flag) thins which requests record; ids echo on every response
    // regardless.
    thirstyflops::obs::trace::set_enabled(true);
    let server = match Server::bind_with_faults(&config, faults) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", config.addr);
            return Ok(1);
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
    let Some(timeout) = drain_timeout else {
        server.wait();
        return Ok(0);
    };
    // SIGTERM-style lifecycle without signal handling (the workspace is
    // std-only): stdin EOF is the drain trigger. An orchestrator holds
    // stdin open while the server should run and closes it (or exits) to
    // start the drain; /readyz flips to 503 immediately, in-flight
    // responses complete, and the process exits once drained or at the
    // timeout.
    let mut sink = String::new();
    while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    eprintln!("stdin closed — draining (timeout {}s)", timeout.as_secs());
    if server.drain(timeout) {
        eprintln!("drained cleanly");
        Ok(0)
    } else {
        eprintln!("drain timed out with connections still in flight");
        Ok(1)
    }
}

fn cmd_loadgen(inv: &Invocation) -> Result<i32, String> {
    let mix_path = inv
        .value("--mix")
        .ok_or("loadgen needs --mix FILE (recorded mixes live in examples/loadmix/)")?;
    let mut config = loadgen::RunConfig::default();
    if let Some(n) = inv.get_if("--connections", "a positive integer", |&n: &usize| n > 0)? {
        config.connections = n;
    }
    if let Some(n) = inv.get_if("--workers", "a positive integer", |&n: &usize| n > 0)? {
        config.workers = n;
    }
    let positive = |x: &f64| *x > 0.0 && x.is_finite();
    if let Some(r) = inv.get_if("--rate", "a positive requests/second", positive)? {
        config.rate = r;
    }
    config.addr = inv.value("--addr").map(str::to_string);
    if let Some(n) = inv.get("--retries", "a non-negative integer")? {
        config.retries = n;
    }
    if let Some(ms) = inv.get("--request-timeout", "a whole number of milliseconds")? {
        config.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    config.keep_alive = !inv.has("--one-shot");
    // The plan length: explicit `--requests N`, or `--rate R --duration S`
    // converted up front so the replay is a fixed, deterministic count
    // either way (docs/CONCURRENCY.md).
    if let Some(n) = inv.get_if("--requests", "a positive integer", |&n: &usize| n > 0)? {
        config.requests = n;
    } else if let Some(s) = inv.get_if("--duration", "a positive number of seconds", positive)? {
        if config.rate <= 0.0 {
            return Err("--duration needs --rate R to fix the request count".into());
        }
        config.requests = ((config.rate * s).round() as usize).max(1);
    }
    // `--chaos plan.json`: install the fault plan process-globally (the
    // in-process server and the core simcache both pick it up), replay
    // the mix under it, and verify the fail-closed invariant — every 200
    // byte-identical, every error a deliberate, well-formed 5xx.
    if inv.has("--chaos") && config.addr.is_some() {
        return Err(String::from(
            "--chaos needs the in-process server (the plan cannot be installed into a \
             remote --addr target)",
        ));
    }
    let chaos = inv.value("--chaos").map(read_fault_plan).transpose()?;
    let mix = loadgen::MixSpec::from_json(&read_file(mix_path)?)
        .map_err(|e| format!("{mix_path}: {e}"))?;
    let fail = |e: loadgen::LoadError| {
        eprintln!("loadgen: {e}");
        Ok(1)
    };

    if let Some(plan) = chaos {
        thirstyflops::faults::install(Arc::new(FaultInjector::mirrored(plan)));
        config.chaos = true;
        let (report, stats) = match loadgen::run_with_stats(&mix, &config) {
            Ok(done) => done,
            Err(e) => return fail(e),
        };
        // Fail closed: any byte mismatch or unrecovered request is a
        // contract violation (docs/ROBUSTNESS.md).
        let failed = report.mismatches > 0 || report.errors > 0 || stats.unrecovered > 0;
        if inv.has("--json") {
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
        return Ok(i32::from(failed));
    }

    match loadgen::run(&mix, &config) {
        Ok(report) => {
            if inv.has("--json") {
                print!("{}", api::to_json(&report));
            } else {
                print!("{}", loadgen::human_table(&report));
            }
            // Zero mismatches is the contract; a nonzero exit makes CI
            // and scripts fail loudly on any drift.
            Ok(i32::from(report.mismatches > 0 || report.errors > 0))
        }
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The crate doc's command list is the table, rendered.
    #[test]
    fn doc_command_list_matches_the_table() {
        let doc: String = include_str!("main.rs")
            .lines()
            .map_while(|line| line.strip_prefix("//!"))
            .skip_while(|line| *line != " ```text")
            .skip(1)
            .take_while(|line| *line != " ```")
            .map(|line| format!("{}\n", line.strip_prefix(' ').unwrap_or(line)))
            .collect();
        let table: Vec<String> = COMMANDS.iter().map(synopsis).collect();
        assert_eq!(doc, format!("{}\n", table.join("\n")));
    }

    #[test]
    fn usage_lists_every_flag_of_every_command() {
        let usage = usage();
        for command in COMMANDS {
            let synopsis = synopsis(command);
            for line in synopsis.lines() {
                assert!(usage.contains(&format!("  {line}\n")), "{}", command.name);
            }
            for flag in command.flags {
                assert!(
                    synopsis.contains(&format!("[{}]", flag.spelling())),
                    "{} {}",
                    command.name,
                    flag.name
                );
            }
            assert!(usage.contains(&flag_lines(command.flags)));
        }
        assert!(usage.contains(&flag_lines(GLOBAL_FLAGS)));
    }

    /// The README's CLI table lists exactly each command's flags.
    #[test]
    fn readme_cli_table_matches_the_table() {
        let readme = include_str!("../README.md");
        for command in COMMANDS {
            let prefix = format!("| `thirstyflops {}", command.name);
            let row = readme
                .lines()
                .find(|line| {
                    line.strip_prefix(&prefix)
                        .is_some_and(|tail| tail.starts_with([' ', '`']))
                })
                .unwrap_or_else(|| panic!("README has no row for {}", command.name));
            let synopsis = row.split('`').nth(1).expect("row quotes its synopsis");
            let mut listed: Vec<&str> = synopsis
                .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
                .filter(|word| word.starts_with("--"))
                .collect();
            let mut declared: Vec<&str> = command.flags.iter().map(|f| f.name).collect();
            listed.sort_unstable();
            declared.sort_unstable();
            assert_eq!(listed, declared, "README row for {}", command.name);
        }
    }

    #[test]
    fn flag_names_are_unique_per_command() {
        for command in COMMANDS {
            let all: Vec<&str> = command
                .flags
                .iter()
                .chain(GLOBAL_FLAGS)
                .map(|f| f.name)
                .collect();
            for (i, name) in all.iter().enumerate() {
                assert!(name.starts_with("--"), "{name}");
                assert!(!all[..i].contains(name), "{} {name}", command.name);
            }
        }
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn global_flags_go_anywhere_and_subcommands_are_their_own_entries() {
        let inv = parse(&argv(&[
            "scenario",
            "--threads",
            "2",
            "sweep",
            "f.json",
            "--top",
            "3",
            "--profile",
        ]))
        .expect("valid");
        assert_eq!(inv.command.name, "scenario sweep");
        assert_eq!(inv.args, ["f.json"]);
        assert_eq!(inv.value("--threads"), Some("2"));
        assert_eq!(inv.value("--top"), Some("3"));
        assert!(inv.has("--profile"));
        let err = parse(&argv(&["scenario", "run", "f.json", "--top", "3"]))
            .err()
            .expect("--top is sweep-only");
        assert!(err.contains("unknown scenario run flag \"--top\""), "{err}");
    }

    #[test]
    fn typed_getter_names_the_flag_and_the_value() {
        let inv = parse(&argv(&["serve", "--cache-ttl", "-5"])).expect("structurally valid");
        let err = inv
            .get::<u64>("--cache-ttl", "a whole number of seconds")
            .unwrap_err();
        assert_eq!(
            err,
            "--cache-ttl expects a whole number of seconds, got \"-5\""
        );
        assert_eq!(inv.get::<u64>("--workers", "a positive integer"), Ok(None));
    }

    /// Every token the fuzzer draws from: command words, every flag in
    /// the table, numbers, a sampling ratio and junk.
    fn vocabulary() -> Vec<&'static str> {
        let mut words: Vec<&'static str> = COMMANDS
            .iter()
            .flat_map(|c| c.name.split(' '))
            .chain(COMMANDS.iter().flat_map(|c| c.flags.iter().map(|f| f.name)))
            .chain(GLOBAL_FLAGS.iter().map(|f| f.name))
            .collect();
        words.extend([
            "0", "7", "2023", "-1", "-5", "1/8", "1/0", "polaris", "fig07", "--", "-", "--help",
            "-h", "--bogus", "x.json", "", "é", "--seed=7",
        ]);
        words
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `parse` never panics, and whatever it accepts holds only
        /// flags its command (or the global set) declares, each value
        /// flag with a value that is not itself a flag.
        #[test]
        fn parse_accepts_only_declared_flags(
            picks in collection::vec(0usize..1000, 0..9)
        ) {
            let words = vocabulary();
            let tokens: Vec<String> =
                picks.iter().map(|&i| words[i % words.len()].to_string()).collect();
            if let Ok(inv) = parse(&tokens) {
                let required = inv.command.required().count();
                prop_assert!(
                    inv.args.len() == required
                        || (inv.command.variadic() && inv.args.len() > required),
                    "{tokens:?}: positional count"
                );
                for (i, (name, value)) in inv.flags.iter().enumerate() {
                    let flag = inv
                        .command
                        .flags
                        .iter()
                        .chain(GLOBAL_FLAGS)
                        .find(|f| f.name == *name);
                    prop_assert!(flag.is_some(), "{tokens:?}: undeclared {name}");
                    let flag = flag.unwrap();
                    prop_assert_eq!(flag.metavar.is_some(), value.is_some());
                    prop_assert!(
                        !matches!(value, Some(v) if v.starts_with("--")),
                        "{tokens:?}: {name} took a flag as its value"
                    );
                    prop_assert!(
                        !inv.flags[..i].iter().any(|(n, _)| n == name),
                        "{tokens:?}: {name} repeated"
                    );
                }
            }
        }
    }
}
