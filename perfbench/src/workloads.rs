//! The four workloads, untraced: what a user of the CLI or the server
//! sees end to end.

use std::time::{Duration, Instant};

use thirstyflops::loadgen::MixSpec;
use thirstyflops::serve::{api, handlers, http, AppState};

use crate::client::{self, Conn};
use crate::mix;
use crate::procs::{self, Server, THREADS};
use crate::stats::quantile;
use crate::verify::{self, Digest, Expected, Tally};

/// The large streaming sweep `sweep_large` runs.
pub const SWEEP_FILE: &str = "examples/scenarios/sweep_siting_large.json";
/// Spawns of the tiny `systems --json` command per CLI run; their median
/// is the CLI workloads' `setup_s`.
const SETUP_SPAWNS: usize = 40;
/// Fewest timed processes per CLI run.
const MIN_CLI_RUNS: usize = 3;
/// Fresh servers per `serve_warm` run.
const WARM_ROUNDS: usize = 3;
/// Fewest fresh servers per `scenario_misses` run.
const MIN_MISS_ROUNDS: usize = 3;
/// Requests per window of a replay. Throughput and p99 are taken per
/// window and reported as the median window, so a burst of interference
/// from outside the benchmark moves a few windows, not the result; 1,000
/// requests leave 10 beyond each window's p99. A `scenario_misses`
/// replay is exactly one window.
const WINDOW: usize = 1_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fresh `experiments --all --json` process.
    PaperCold,
    /// A fresh `scenario sweep sweep_siting_large.json --json` process.
    SweepLarge,
    /// 100,000 body-cache hits over one keep-alive connection.
    ServeWarm,
    /// 1,000 scenario POSTs that fill a fresh server's caches.
    ScenarioMisses,
}

impl Workload {
    /// Every workload, `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCold,
        Workload::SweepLarge,
        Workload::ServeWarm,
        Workload::ScenarioMisses,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::SweepLarge => "sweep_large",
            Workload::ServeWarm => "serve_warm",
            Workload::ScenarioMisses => "scenario_misses",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the inputs come from the seed; the CLI workloads run
    /// fixed inputs.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ScenarioMisses)
    }

    /// Server workers (0 for the CLI workloads).
    pub fn workers(self) -> usize {
        match self {
            Workload::ServeWarm => 1,
            Workload::ScenarioMisses => 2,
            _ => 0,
        }
    }

    /// A CLI workload's subcommand and the recorded digest of its stdout;
    /// `None` for the serve workloads.
    pub fn cli(self) -> Option<(&'static [&'static str], Digest)> {
        match self {
            Workload::PaperCold => Some((&["experiments", "--all", "--json"], verify::PAPER_COLD)),
            Workload::SweepLarge => Some((
                &["scenario", "sweep", SWEEP_FILE, "--json"],
                verify::SWEEP_LARGE,
            )),
            Workload::ServeWarm | Workload::ScenarioMisses => None,
        }
    }
}

/// `--threads N` followed by `subcommand`.
pub fn with_threads(threads: usize, subcommand: &[&str]) -> Vec<String> {
    ["--threads".to_string(), threads.to_string()]
        .into_iter()
        .chain(subcommand.iter().map(|s| s.to_string()))
        .collect()
}

/// Raw samples of one run; `metrics::end_to_end` turns them into metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every verified operation.
    pub tally: Tally,
    /// Per timed operation: process wall (CLI) or replay time (serve), s.
    pub wall_s: Vec<f64>,
    /// Per timed operation (CLI) or window (serve): operations per second.
    pub req_per_s: Vec<f64>,
    /// Per request (serve) or process (CLI) latency, µs.
    pub latency_us: Vec<f64>,
    /// Per window (serve only): exact p99 latency, µs.
    pub p99_us: Vec<f64>,
    /// Per set-up, s.
    pub setup_s: Vec<f64>,
    /// Per process under test, peak RSS in MB.
    pub rss_mb: Vec<f64>,
}

/// Runs `workload` for `seconds` of measurement (at least the minimum
/// repetitions) against the binary `bin`.
pub fn run(workload: Workload, seed: u64, seconds: f64, bin: &str) -> Result<Measured, String> {
    match (workload, workload.cli()) {
        (_, Some((subcommand, digest))) => cli(subcommand, digest, seconds, bin),
        (Workload::ServeWarm, None) => serve_warm(seed, seconds, bin),
        (_, None) => scenario_misses(seed, seconds, bin),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn cli(subcommand: &[&str], digest: Digest, seconds: f64, bin: &str) -> Result<Measured, String> {
    let mut m = Measured::default();
    let systems = Expected::Exact(api::to_json(&api::systems_payload()).into_bytes());
    let threads = THREADS.to_string();
    for _ in 0..SETUP_SPAWNS {
        let run = procs::run_cli(bin, &["--threads", &threads, "systems", "--json"])?;
        m.setup_s.push(secs(run.wall));
        m.tally.record(if run.code == 0 {
            systems.check(200, &run.stdout)
        } else {
            Err(format!("systems exit code {}", run.code))
        });
    }
    let args = with_threads(THREADS, subcommand);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // One untimed run first, so page-cache state of the binary and its
    // inputs is the same for every timed run.
    let warm = procs::run_cli(bin, &args)?;
    m.tally
        .record(verify::check_cli(warm.code, &warm.stdout, digest));
    let started = Instant::now();
    while m.wall_s.len() < MIN_CLI_RUNS || secs(started.elapsed()) < seconds {
        let run = procs::run_cli(bin, &args)?;
        m.tally
            .record(verify::check_cli(run.code, &run.stdout, digest));
        let wall = secs(run.wall);
        m.wall_s.push(wall);
        m.req_per_s.push(1.0 / wall);
        m.latency_us.push(wall * 1e6);
        m.rss_mb.push(run.max_rss_kb as f64 / 1024.0);
    }
    Ok(m)
}

/// A request set: the wire bytes of each distinct request, which of them
/// are `/healthz`, and the replay order over them.
pub struct Inputs {
    /// Wire bytes per distinct request.
    pub wires: Vec<Vec<u8>>,
    /// True for `/healthz` requests.
    pub health: Vec<bool>,
    /// Indices into `wires`, in replay order.
    pub plan: Vec<usize>,
}

/// The expected response to every distinct request, computed by the
/// server's own handler in this process (each on a fresh state, so the
/// body cache never answers), on `threads` threads.
pub fn expectations(inputs: &Inputs, threads: usize) -> Vec<Expected> {
    let wires = &inputs.wires;
    let expect_one = |i: usize| {
        if inputs.health[i] {
            return Expected::Health;
        }
        match http::read_request(&mut wires[i].as_slice()) {
            Ok(req) => {
                let resp = handlers::handle(&req, &AppState::default());
                if resp.status == 200 {
                    Expected::Exact(resp.body.as_bytes().to_vec())
                } else {
                    // A request the server would refuse can never verify.
                    Expected::Exact(Vec::new())
                }
            }
            Err(_) => Expected::Exact(Vec::new()),
        }
    };
    let per = wires.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = (0..wires.len())
            .step_by(per)
            .map(|lo| {
                scope.spawn(move || {
                    (lo..(lo + per).min(wires.len()))
                        .map(expect_one)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("expectation thread panicked"))
            .collect()
    })
}

/// The `serve_warm` inputs: the mix templates and the seeded plan.
pub fn warm_inputs(seed: u64) -> Result<Inputs, String> {
    let text = std::fs::read_to_string(mix::WARM_MIX)
        .map_err(|e| format!("read {}: {e}", mix::WARM_MIX))?;
    let mix_spec = MixSpec::from_json(&text).map_err(|e| format!("{}: {e}", mix::WARM_MIX))?;
    let wires = mix_spec
        .templates
        .iter()
        .map(|t| match t.method.as_str() {
            "POST" => client::post(&t.target, &t.body),
            _ => client::get(&t.target),
        })
        .collect();
    // Templates marked `"verify": false` are /healthz, whose counters
    // change per call; they are checked for shape instead of bytes.
    let health = mix_spec.templates.iter().map(|t| !t.verify).collect();
    Ok(Inputs {
        wires,
        health,
        plan: mix::warm_plan(&mix_spec, seed, mix::WARM_REQUESTS),
    })
}

/// The `scenario_misses` inputs: the seeded bodies and their plan.
pub fn miss_inputs(seed: u64) -> Inputs {
    let wires: Vec<Vec<u8>> = mix::scenario_bodies(seed, mix::MISS_DISTINCT)
        .iter()
        .map(|b| client::post("/v1/scenarios/run", &b.text))
        .collect();
    Inputs {
        health: vec![false; wires.len()],
        wires,
        plan: mix::scenario_plan(seed, mix::MISS_DISTINCT, mix::MISS_REQUESTS),
    }
}

/// Spawns a server and waits until it is ready; returns it with the
/// readiness connection.
fn start(bin: &str, workers: usize) -> Result<(Server, Conn), String> {
    let server = Server::spawn(bin, workers)?;
    let conn = server.ready()?;
    Ok((server, conn))
}

fn serve_warm(seed: u64, seconds: f64, bin: &str) -> Result<Measured, String> {
    let inputs = warm_inputs(seed)?;
    let expected = expectations(&inputs, THREADS);
    let mut m = Measured::default();
    for _ in 0..WARM_ROUNDS {
        let spawned = Instant::now();
        let (server, mut conn) = start(bin, Workload::ServeWarm.workers())?;
        for (wire, want) in inputs.wires.iter().zip(&expected) {
            let outcome = conn
                .exchange(wire)
                .and_then(|(status, body)| want.check(status, body));
            m.tally.record(outcome);
        }
        // The only worker serves one connection at a time: close this one
        // before the replay connects.
        drop(conn);
        m.setup_s.push(secs(spawned.elapsed()));
        let round = Instant::now();
        loop {
            let r = client::replay(&server.addr, 1, &inputs, &expected);
            push_replay(&mut m, r);
            if secs(round.elapsed()) >= seconds / WARM_ROUNDS as f64 {
                break;
            }
        }
        m.rss_mb.push(server.peak_rss_kb()? as f64 / 1024.0);
        server.stop();
    }
    Ok(m)
}

fn scenario_misses(seed: u64, seconds: f64, bin: &str) -> Result<Measured, String> {
    let inputs = miss_inputs(seed);
    let expected = expectations(&inputs, THREADS);
    let mut m = Measured::default();
    let mut replayed = 0.0;
    while m.wall_s.len() < MIN_MISS_ROUNDS || replayed < seconds {
        let spawned = Instant::now();
        let (server, conn) = start(bin, Workload::ScenarioMisses.workers())?;
        drop(conn);
        m.setup_s.push(secs(spawned.elapsed()));
        let r = client::replay(&server.addr, 2, &inputs, &expected);
        replayed += secs(r.elapsed);
        push_replay(&mut m, r);
        m.rss_mb.push(server.peak_rss_kb()? as f64 / 1024.0);
        server.stop();
    }
    Ok(m)
}

fn push_replay(m: &mut Measured, r: client::Replay) {
    m.wall_s.push(secs(r.elapsed));
    // Completions per second over each run of WINDOW completions.
    let mut ends = r.ends_ns.clone();
    ends.sort_unstable();
    let mut since = 0;
    for window in ends.chunks_exact(WINDOW) {
        let last = window[WINDOW - 1];
        m.req_per_s
            .push(WINDOW as f64 / ((last - since) as f64 / 1e9));
        since = last;
    }
    let latency_us: Vec<f64> = r.latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    for window in latency_us.chunks_exact(WINDOW) {
        m.p99_us.push(quantile(window, 0.99).unwrap_or(f64::NAN));
    }
    m.latency_us.extend(latency_us);
    m.tally.absorb(r.tally);
}
