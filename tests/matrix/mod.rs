//! The determinism matrix (docs/CONCURRENCY.md), shared by the test
//! files that include it as `mod matrix;`: one table whose rows are CLI
//! invocations with their shipped inputs and whose columns are thread
//! settings. `tests/determinism.rs` runs the whole table; other files
//! run the rows their subsystem owns, with [`table_rows`], or rows of
//! their own, with [`row`], through the same [`check`].
//!
//! In every row, stdout is byte-identical in every cell and not empty,
//! the profiled counts (stage invocations, counter values and folded
//! `(stack, count)` pairs; durations are wall-clock and dropped) are
//! identical between the profiled cells, each stage's invocations equal
//! the by-leaf sum of its folded counts, and a traced cell writes a
//! Chrome trace. Optional pins fix the counts a row must reach. Every
//! cell is its own child process, so no process-global switch is shared
//! between cells or with any other test.

// Each test file that includes this module uses a part of it.
#![allow(dead_code)]

use std::path::Path;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use thirstyflops::obs::report::ProfileReport;

/// Child processes the matrix runs at once.
const CONCURRENT_ROWS: usize = 2;

/// A column: the `THIRSTYFLOPS_THREADS` every cell sets itself (so a
/// value the test process inherited never collapses the columns) and the
/// flags it adds. A cell with no flags is the row's reference run; a
/// trailing `--trace-out` takes the cell's trace path.
pub type Column = (&'static str, &'static [&'static str]);

const COLUMNS: [Column; 4] = [
    ("1", &["--threads", "1", "--profile"]),
    ("2", &[]),
    ("8", &["--threads", "8", "--profile"]),
    ("8", &["--threads", "8", "--trace-out"]),
];

/// The extra column of the `rank --json` row.
const SAMPLED: Column = (
    "8",
    &["--threads", "8", "--trace-sample", "1/4", "--trace-out"],
);

/// Values a row must reach: `stage <name>` invocations, `counter <name>`
/// values and `folded <stack>` counts of its profile, and the number of
/// times `stdout <text>` occurs in its output. Every row simulates a
/// workload year unless it pins `stage workload_sim` at 0.
pub type Pins = &'static [(&'static str, u64)];

pub struct Row {
    pub args: Vec<String>,
    pins: Pins,
    /// Columns this row runs besides [`COLUMNS`].
    extra: Vec<Column>,
}

/// A row of `args` split on whitespace.
pub fn row(args: &str, pins: Pins) -> Row {
    Row {
        args: args.split_whitespace().map(str::to_string).collect(),
        pins,
        extra: Vec::new(),
    }
}

/// Every distinct workload key, climate and region is computed once,
/// whichever thread computes it.
const FOOTPRINT_FUGAKU: Pins = &[
    ("stage workload_sim", 1),
    ("stage wue_series", 1),
    ("stage grid_kernel", 1),
    (
        "counter thirstyflops_simcache_misses_total{cache=\"system_years\"}",
        1,
    ),
    (
        "counter thirstyflops_simcache_misses_total{cache=\"wue_series\"}",
        1,
    ),
    (
        "counter thirstyflops_simcache_misses_total{cache=\"grid_years\"}",
        1,
    ),
];

/// A cold `rank` reduces each of its six reports as one kernel lane and
/// computes five climates and five grid years: Aurora shares Polaris's
/// Lemont climate and Northern Illinois grid.
const RANK: Pins = &[
    ("stage fused_reduction", 6),
    ("stage cache_lookup", 6),
    ("stage workload_sim", 6),
    ("stage wue_series", 5),
    ("stage grid_kernel", 5),
    ("counter thirstyflops_batch_lanes_total", 6),
    ("counter thirstyflops_batch_kernel_passes_total", 6),
];

/// The fig06–08 lane statistics reduce the four paper years in one fused
/// kernel pass.
const FIG07: Pins = &[
    ("stage fused_reduction", 1),
    ("counter thirstyflops_batch_lanes_total", 4),
    ("counter thirstyflops_batch_kernel_passes_total", 1),
];

/// fig13's miniAMR spans open on the calling thread: once per regrid
/// (the ghost-source map build nested inside it) and once per sweep, so
/// the default kernel's 40 steps at a regrid cadence of 5 give 8 / 8 / 40.
const FIG13: Pins = &[
    ("folded miniamr_regrid", 8),
    ("folded miniamr_regrid;miniamr_ghost", 8),
    ("folded miniamr_stencil", 40),
];

/// One workload year, five climates and five regions for 25 cells.
const SWEEP_SITING: Pins = &[
    ("stage workload_sim", 1),
    ("stage wue_series", 5),
    ("stage grid_kernel", 5),
    (
        "counter thirstyflops_simcache_misses_total{cache=\"system_years\"}",
        1,
    ),
    (
        "counter thirstyflops_simcache_misses_total{cache=\"wue_series\"}",
        5,
    ),
    (
        "counter thirstyflops_simcache_misses_total{cache=\"grid_years\"}",
        5,
    ),
    ("counter thirstyflops_sweep_cells_total", 25),
];

/// Lane-major evaluation reduces each of the 50 lane sub-combinations
/// once, plus the baseline lane, in two 32-lane passes plus the
/// baseline's. Its 198 chunks merge their top-N heaps across workers.
const SWEEP_SITING_LARGE: Pins = &[
    ("counter thirstyflops_batch_lanes_total", 51),
    ("counter thirstyflops_batch_kernel_passes_total", 3),
    ("stdout \"scenario_count\": 101250", 1),
    ("stdout \"top_n\": 24", 1),
];

/// The table's rows: the commands with their shipped inputs, then one
/// row per `examples/scenarios` spec.
pub fn rows() -> Vec<Row> {
    let mut rows = vec![
        row("footprint fugaku --json", FOOTPRINT_FUGAKU),
        row("footprint polaris --seed 7 --json", &[]),
        row("footprint polaris --seed 7", &[]),
        row("compare polaris frontier --json", &[]),
        Row {
            extra: vec![SAMPLED],
            ..row("rank --json", RANK)
        },
        row("rank --adjusted --json", &[]),
        row("scenario fugaku --seed 7 --json", &[]),
        row("sensitivity fugaku", &[]),
        row("lifecycle polaris --years 7", &[]),
        row("systems --json", &[("stage workload_sim", 0)]),
        row("experiments --all --json", &[]),
        row("experiments fig07 --json", FIG07),
        row("experiments fig13 --json", FIG13),
        row(
            "scenario sweep examples/scenarios/sweep_siting.json",
            SWEEP_SITING,
        ),
    ];
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/scenarios exists")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let verb = if name.starts_with("sweep_") {
            "sweep"
        } else {
            "run"
        };
        let pins = match name.as_str() {
            "sweep_siting.json" => SWEEP_SITING,
            "sweep_siting_large.json" => SWEEP_SITING_LARGE,
            _ => &[],
        };
        let args = format!("scenario {verb} examples/scenarios/{name} --json");
        rows.push(row(&args, pins));
    }
    rows
}

/// The table's rows whose arguments are `args`, in that order; panics
/// if the table has no such row.
pub fn table_rows(args: &[&str]) -> Vec<Row> {
    let mut table = rows();
    args.iter()
        .map(|want| {
            let at = table
                .iter()
                .position(|row| row.args.join(" ") == *want)
                .unwrap_or_else(|| panic!("the matrix has no row `{want}`"));
            table.swap_remove(at)
        })
        .collect()
}

fn run_cell(row: &Row, (threads, flags): Column, trace: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_thirstyflops"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(&row.args)
        .args(flags)
        .env("THIRSTYFLOPS_THREADS", threads)
        .env_remove("THIRSTYFLOPS_FAULTS");
    if flags.last() == Some(&"--trace-out") {
        cmd.arg(trace);
    }
    cmd.output().expect("CLI binary runs")
}

/// The deterministic half of a profile in report order: `stage`,
/// `counter` and `folded` entries, named as in [`Pins`].
type Counts = Vec<(String, u64)>;

/// From the `--profile --json` stderr payload.
fn counts_from_json(stderr: &str) -> Result<Counts, String> {
    let report: ProfileReport =
        serde_json::from_str(stderr).map_err(|e| format!("profile JSON: {e}"))?;
    let stages = report.stages.into_iter();
    let stages = stages.map(|s| (format!("stage {}", s.stage), s.invocations));
    let counters = report.counters.into_iter();
    let counters = counters.map(|c| (format!("counter {}", c.name), c.value));
    let folded = report.folded.into_iter();
    let folded = folded.map(|f| (format!("folded {}", f.stack), f.count));
    Ok(stages.chain(counters).chain(folded).collect())
}

/// From the `--profile` text tables: blank-line separated sections, each
/// a header line whose first word names the kind, then one
/// `name count ...` line per entry.
fn counts_from_table(stderr: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for section in stderr.split("\n\n") {
        let mut lines = section.lines();
        let header = lines.next().unwrap_or_default();
        let kind = header.split_whitespace().next().unwrap_or_default();
        if !["stage", "counter", "folded"].contains(&kind) {
            return Err(format!("unknown profile section {header:?}"));
        }
        for line in lines {
            let mut fields = line.split_whitespace();
            let (Some(name), Some(Ok(count))) = (fields.next(), fields.next().map(str::parse))
            else {
                return Err(format!("malformed profile line {line:?}"));
            };
            counts.push((format!("{kind} {name}"), count));
        }
    }
    Ok(counts)
}

fn count(counts: &Counts, key: &str) -> Option<u64> {
    counts.iter().find(|(k, _)| k == key).map(|&(_, n)| n)
}

/// Each stage's invocations equal the folded counts whose leaf is that
/// stage: the stage table is the rollup summed by leaf.
fn check_by_leaf(counts: &Counts) -> Result<(), String> {
    if !counts.iter().any(|(k, _)| k.starts_with("stage ")) {
        return Err("the profile has no stages".into());
    }
    let stages = counts
        .iter()
        .filter_map(|(k, n)| Some((k.strip_prefix("stage ")?, n)));
    for (stage, invocations) in stages {
        let folded: u64 = counts
            .iter()
            .filter_map(|(k, n)| k.strip_prefix("folded ").map(|stack| (stack, n)))
            .filter(|(stack, _)| stack.rsplit(';').next() == Some(stage))
            .map(|(_, n)| n)
            .sum();
        if folded != *invocations {
            return Err(format!(
                "{stage}: {invocations} invocations, {folded} by leaf"
            ));
        }
    }
    Ok(())
}

/// Every entry whose count differs, as `key: a vs b`.
fn diff(a: &Counts, b: &Counts) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (key, _) in a.iter().chain(b) {
        let line = format!("{key}: {:?} vs {:?}", count(a, key), count(b, key));
        if count(a, key) != count(b, key) && !lines.contains(&line) {
            lines.push(line);
        }
    }
    lines.join(", ")
}

/// Numbers the trace files, unique within the test process.
static TRACES: AtomicUsize = AtomicUsize::new(0);

/// Runs every cell of one row, `extra` columns included, and checks the
/// row.
fn check_row(row: &Row, extra: &[Column]) -> Result<(), String> {
    let json = row.args.iter().any(|a| a == "--json");
    let mut reference = None;
    let mut profiled: Option<(String, Counts)> = None;
    let mut cells = Vec::new();
    let columns = COLUMNS.iter().chain(&row.extra).chain(extra);
    for &column in columns {
        let (threads, flags) = column;
        let label = format!("THIRSTYFLOPS_THREADS={threads} {}", flags.join(" "));
        let trace = std::env::temp_dir().join(format!(
            "thirstyflops_matrix_{}_{}.trace",
            std::process::id(),
            TRACES.fetch_add(1, Ordering::Relaxed)
        ));
        let out = run_cell(row, column, &trace);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        if !out.status.success() {
            return Err(format!("`{label}` failed: {stderr}"));
        }
        if flags.is_empty() {
            if !stderr.is_empty() {
                return Err(format!("`{label}` wrote stderr: {stderr}"));
            }
            reference = Some(out.stdout.clone());
        } else if flags.contains(&"--profile") {
            let counts = if json {
                counts_from_json(&stderr)
            } else {
                counts_from_table(&stderr)
            }
            .and_then(|counts| check_by_leaf(&counts).map(|()| counts))
            .map_err(|e| format!("`{label}`: {e}"))?;
            match &profiled {
                None => profiled = Some((label.clone(), counts)),
                Some((first, first_counts)) if *first_counts != counts => {
                    return Err(format!(
                        "profile counts differ, `{first}` vs `{label}`: {}",
                        diff(first_counts, &counts)
                    ));
                }
                Some(_) => {}
            }
        } else {
            let text = std::fs::read_to_string(&trace).unwrap_or_default();
            std::fs::remove_file(&trace).ok();
            if !text.contains("\"traceEvents\"") {
                return Err(format!("`{label}` wrote no Chrome trace to {trace:?}"));
            }
        }
        cells.push((label, out.stdout));
    }
    let reference = reference.expect("the plain column runs");
    if reference.is_empty() {
        return Err("the plain run printed nothing".into());
    }
    let stdout = String::from_utf8_lossy(&reference);
    for (label, bytes) in &cells {
        if *bytes != reference {
            let ours = String::from_utf8_lossy(bytes);
            let first = ours.lines().zip(stdout.lines()).find(|(a, b)| a != b);
            return Err(format!(
                "`{label}` stdout differs from the plain run's: {first:?}"
            ));
        }
    }
    let (_, counts) = profiled.expect("the profiled columns run");
    for &(key, want) in row.pins {
        let got = match key.strip_prefix("stdout ") {
            Some(text) => Some(stdout.matches(text).count() as u64),
            None => count(&counts, key),
        };
        if got != Some(want) {
            return Err(format!("{key} is {got:?}, pinned at {want}"));
        }
    }
    if !row.pins.contains(&("stage workload_sim", 0)) {
        for leaf in ["workload_sim;trace_gen", "workload_sim;cluster_sim"] {
            let found = counts
                .iter()
                .any(|(k, _)| k.starts_with("folded ") && k.ends_with(leaf));
            if !found {
                return Err(format!("no folded stack ends with {leaf}"));
            }
        }
    }
    Ok(())
}

/// Checks every row at every column plus `extra`, at most
/// [`CONCURRENT_ROWS`] child processes at a time. A failure names its
/// row.
pub fn check(rows: Vec<Row>, extra: &[Column]) {
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CONCURRENT_ROWS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(row) = rows.get(index) else { break };
                if let Err(e) = check_row(row, extra) {
                    let failure = format!("`{}`: {e}", row.args.join(" "));
                    failures
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((index, failure));
                }
            });
        }
    });
    let mut failures = failures
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    failures.sort();
    let report: Vec<String> = failures.into_iter().map(|(_, e)| e).collect();
    assert!(report.is_empty(), "{}", report.join("\n"));
}
