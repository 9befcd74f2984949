//! The traced run's layer probes.
//!
//! Each probe runs in its own process (so every group starts with cold
//! process-global caches), on one rayon thread, and times calls into
//! public functions of the repository's modules from this file. Nothing
//! is instrumented inside the program: a probe records spans (name,
//! start, end, parent) around its own calls and derives the per-layer
//! metrics from them. Layer names are module names.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::batch::{self, BatchContext, LaneRequest, TopN};
use thirstyflops::core::{simcache, SystemYear};
use thirstyflops::experiments::{self, context};
use thirstyflops::grid::GridRegion;
use thirstyflops::scenario::{self, engine, ScenarioSpec, SweepSpec};
use thirstyflops::scheduler::StartTimeOptimizer;
use thirstyflops::serve::router::{self, Query};
use thirstyflops::serve::{api, handlers, http, AppState};
use thirstyflops::units::{KilowattHours, Pue};
use thirstyflops::workload::miniamr::{MiniAmr, MiniAmrConfig};

use crate::client::{self, Conn};
use crate::procs::Server;
use crate::verify::{self, Digest, Expected, Tally};
use crate::workloads::{self, Workload};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `workload.miniamr`.
    pub name: Cow<'static, str>,
    /// Start, ns since the probe's epoch.
    pub start_ns: u64,
    /// End, ns since the probe's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Spans kept in memory and written out when the probe ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        client::nanos(self.epoch.elapsed())
    }

    /// Opens a span under the innermost open one.
    fn open(&mut self, name: impl Into<Cow<'static, str>>) -> usize {
        let span = Span {
            name: name.into(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost span (which must be `id`); its length in ms.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Times one call as a leaf span; returns its result and length, ms.
    fn time<T>(&mut self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = black_box(f());
        (out, self.close(id))
    }

    /// Records finished leaf spans (ns since this recorder's epoch)
    /// under `parent`.
    fn extend(&mut self, name: &'static str, parent: usize, spans: &[(u64, u64)]) {
        self.spans
            .extend(spans.iter().map(|&(start_ns, end_ns)| Span {
                name: Cow::Borrowed(name),
                start_ns,
                end_ns,
                parent: Some(parent),
            }));
    }

    /// `[[name, start_ns, end_ns, parent], …]` (parent −1 for roots).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[\"{}\", {}, {}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or(-1, |p| p as i64)
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// One probe's results.
#[derive(Debug, Default)]
pub struct ProbeOut {
    /// Per-layer metrics (names from [`group_metrics`]).
    pub metrics: Vec<(&'static str, f64)>,
    /// Helper values the traced run combines across probes.
    pub aux: Vec<(&'static str, f64)>,
    /// Verified operations.
    pub tally: Tally,
    /// Digest of the outputs a sibling probe must reproduce.
    pub digest: Option<Digest>,
}

/// The probe groups, one process each.
pub const GROUPS: [&str; 5] = ["paper", "sweep", "serve", "scenario_miss", "scenario_parts"];

/// Per-layer metrics `(name, unit)` each probe group emits.
pub fn group_metrics(group: &str) -> &'static [(&'static str, &'static str)] {
    match group {
        "paper" => &[
            ("weather.wue_ms", "ms"),
            ("grid.year_ms", "ms"),
            ("core.simulate_cold_ms", "ms"),
            ("workload.year_ms", "ms"),
            ("core.lane_stats_ms", "ms"),
            ("workload.miniamr_ms", "ms"),
            ("workload.miniamr_cell_updates", "count"),
            ("workload.miniamr_mcups", "Mcells/s"),
            ("scheduler.start_time_ms", "ms"),
            ("experiments.regen_ms", "ms"),
            ("experiments.fig13_ms", "ms"),
            ("experiments.ext01_ms", "ms"),
            ("experiments.render_ms", "ms"),
        ],
        "sweep" => &[
            ("scenario.sweep_parse_ms", "ms"),
            ("scenario.combination_us", "us"),
            ("scenario.apply_overrides_us", "us"),
            ("core.energy_key_us", "us"),
            ("core.aggregate_ms", "ms"),
            ("core.lane_dedup_ratio", "ratio"),
            ("core.workload_sims", "count"),
            ("core.topn_ms", "ms"),
            ("scenario.evaluate_1t_ms", "ms"),
            ("scenario.sweep_unattributed_ms", "ms"),
        ],
        "serve" => &[
            ("serve.parse_us", "us"),
            ("serve.route_us", "us"),
            ("serve.handle_us", "us"),
            ("serve.encode_us", "us"),
            ("serve.roundtrip_us", "us"),
            ("serve.transport_us", "us"),
            ("serve.body_hit_ratio", "ratio"),
        ],
        "scenario_miss" => &[
            ("core.year_misses", "count"),
            ("core.year_hit_ratio", "ratio"),
            ("serve.handle_miss_ms", "ms"),
        ],
        "scenario_parts" => &[
            ("scenario.spec_parse_us", "us"),
            ("scenario.evaluate_ms", "ms"),
            ("scenario.evaluate_spec_ms", "ms"),
            ("scenario.evaluate_post_ms", "ms"),
            ("serve.render_us", "us"),
        ],
        _ => &[],
    }
}

/// The traced run's whole-workload metrics, for the workload it names.
pub const TRACE: [(&str, &str); 3] = [
    ("trace.total_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric `(name, unit)` a traced run reports: each
/// group's, then the whole-workload ones.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    GROUPS
        .iter()
        .flat_map(|g| group_metrics(g).iter().copied())
        .chain(TRACE)
        .collect()
}

/// Runs one probe group.
pub fn run(group: &str, seed: u64, bin: &str, rec: &mut Recorder) -> Result<ProbeOut, String> {
    // The traced run is single-threaded: every span is the work itself,
    // with no parallel fan-out hiding inside it.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global();
    match group {
        "paper" => paper(rec),
        "sweep" => sweep(rec),
        "serve" => serve(seed, bin, rec),
        "scenario_miss" => scenario_miss(seed, bin, rec),
        "scenario_parts" => scenario_parts(seed, rec),
        other => Err(format!("unknown probe group {other:?}")),
    }
}

fn paper(rec: &mut Recorder) -> Result<ProbeOut, String> {
    let mut out = ProbeOut::default();
    // The workload itself, cold: 4 paper years, 21 regenerators, render.
    let root = rec.open("paper_cold");
    let (all, _) = rec.time("experiments.all_cold", experiments::all);
    let (json, render_ms) = rec.time("experiments.render", || api::to_json(&all));
    let total_ms = rec.close(root);
    out.tally
        .record(verify::check_cli(0, json.as_bytes(), verify::PAPER_COLD));

    // Its layers, one public call at a time.
    let parts = rec.open("paper_cold.layers");
    let (mut weather, mut grid, mut cold) = (0.0, 0.0, 0.0);
    for id in SystemId::PAPER {
        let spec = SystemSpec::reference(id);
        weather += rec
            .time("weather.wue", || {
                spec.climate
                    .wue_model()
                    .hourly_series(&spec.climate.generate())
            })
            .1;
        grid += rec
            .time("grid.year", || {
                GridRegion::preset(spec.region).simulate_year()
            })
            .1;
        cold += rec
            .time("core.simulate_cold", || {
                SystemYear::simulate_uncached(spec.clone(), experiments::SEED)
            })
            .1;
    }
    let lane_stats = rec
        .time("core.lane_stats", || {
            batch::year_lane_stats(context::paper_years())
        })
        .1;
    let (mut regen, mut fig13, mut ext01) = (0.0, 0.0, 0.0);
    for id in experiments::ids() {
        let ms = rec
            .time(format!("experiments.regen.{id}"), || {
                experiments::select(&[id])
            })
            .1;
        regen += ms;
        match id {
            "fig13" => fig13 = ms,
            "ext01" => ext01 = ms,
            _ => {}
        }
    }
    // fig13's two parts: the miniAMR kernel and the start-time ranking on
    // the same inputs fig13 builds.
    let (report, miniamr) = rec.time("workload.miniamr", || {
        MiniAmr::new(MiniAmrConfig::default())
            .map(MiniAmr::run)
            .map_err(|e| format!("miniAMR config: {e}"))
    });
    let report = report?;
    let frontier = context::year_of(SystemId::Frontier);
    let job_energy = KilowattHours::new(
        report
            .simulated_energy(&frontier.spec.node)
            .value()
            .max(0.01)
            * 512.0
            * 100.0,
    );
    let (impacts, start_time) = rec.time("scheduler.start_time", || {
        let pue = Pue::new(frontier.spec.pue.value()).expect("catalog PUE is valid");
        let optimizer =
            StartTimeOptimizer::new(frontier.water_intensity(), frontier.carbon.clone(), pue);
        let candidates: Vec<usize> = (0..7).map(|i| 190 * 24 + i * 3).collect();
        optimizer.evaluate(&candidates, 3, job_energy)
    });
    out.tally.record(impacts.map(|_| ()));
    rec.close(parts);

    let updates = report.cell_updates as f64;
    out.metrics = vec![
        ("weather.wue_ms", weather),
        ("grid.year_ms", grid),
        ("core.simulate_cold_ms", cold),
        ("workload.year_ms", cold - weather - grid),
        ("core.lane_stats_ms", lane_stats),
        ("workload.miniamr_ms", miniamr),
        ("workload.miniamr_cell_updates", updates),
        ("workload.miniamr_mcups", updates / (miniamr * 1e3)),
        ("scheduler.start_time_ms", start_time),
        ("experiments.regen_ms", regen),
        ("experiments.fig13_ms", fig13),
        ("experiments.ext01_ms", ext01),
        ("experiments.render_ms", render_ms),
    ];
    out.aux = vec![
        ("total_ms", total_ms),
        ("attributed_ms", cold + lane_stats + regen + render_ms),
    ];
    Ok(out)
}

fn sweep(rec: &mut Recorder) -> Result<ProbeOut, String> {
    let mut out = ProbeOut::default();
    let text = std::fs::read_to_string(workloads::SWEEP_FILE)
        .map_err(|e| format!("read {}: {e}", workloads::SWEEP_FILE))?;
    let err = |e: scenario::ScenarioError| e.to_string();

    // The workload itself, cold: parse, evaluate on one thread, render.
    let root = rec.open("sweep_large");
    let (parsed, parse_ms) = rec.time("scenario.sweep_parse", || SweepSpec::from_json(&text));
    let spec = parsed.map_err(err)?;
    let sims_before = workload_sims();
    let (report, eval_ms) = rec.time("scenario.evaluate_1t", || scenario::evaluate_sweep(&spec));
    let sims = workload_sims() - sims_before;
    let report = report.map_err(err)?;
    let (json, _) = rec.time("scenario.sweep_render", || api::to_json(&report));
    let total_ms = rec.close(root);
    out.tally
        .record(verify::check_cli(0, json.as_bytes(), verify::SWEEP_LARGE));

    // Per cell, over every cell: the three public steps of preparation.
    let cells = spec.combination_count();
    let base = SystemSpec::reference(spec.base.parse().map_err(|e| format!("{e}"))?);
    let per_cell = rec.open("sweep_large.per_cell");
    let (mut comb_ns, mut apply_ns, mut key_ns) = (0u64, 0u64, 0u64);
    let mut lanes: HashMap<(String, u64), usize> = HashMap::new();
    let mut requests: Vec<LaneRequest> = Vec::new();
    let mut rows: Vec<(usize, f64, f64)> = Vec::with_capacity(cells);
    for index in 0..cells {
        let t0 = Instant::now();
        let cell = spec.combination(index).map_err(err)?;
        let t1 = Instant::now();
        let transformed = engine::apply_spec_overrides(&base, &cell.overrides).map_err(err)?;
        let t2 = Instant::now();
        let energy = batch::energy_key(&transformed, cell.seed);
        let t3 = Instant::now();
        comb_ns += client::nanos(t1 - t0);
        apply_ns += client::nanos(t2 - t1);
        key_ns += client::nanos(t3 - t2);
        // Rows share a lane when they share the workload simulation and
        // the series scale (this sweep has no grid axis).
        let wue_scale = cell.overrides.climate.as_ref().and_then(|c| c.wue_scale);
        let lane_key = (energy, wue_scale.map_or(u64::MAX, f64::to_bits));
        let next = requests.len();
        let lane = *lanes.entry(lane_key).or_insert(next);
        if lane == next {
            requests.push(LaneRequest {
                spec: transformed.clone(),
                seed: cell.seed,
                wue_scale,
                ewf_scale: None,
                carbon_scale: None,
            });
        }
        let wsi = cell
            .overrides
            .wsi
            .as_ref()
            .and_then(|w| w.site)
            .unwrap_or(1.0);
        rows.push((lane, transformed.pue.value(), wsi));
    }
    rec.close(per_cell);
    let ms = |ns: u64| ns as f64 / 1e6;

    let (aggregates, aggregate_ms) = rec.time("core.aggregate", || {
        BatchContext::new().aggregate(&requests)
    });
    // The streaming top-N over every row, in the evaluator's 512-cell
    // chunks, keyed by scarcity-weighted operational water.
    let top = spec.top_n.unwrap_or(24) as usize;
    let (kept, topn_ms) = rec.time("core.topn", || {
        let mut merged: Option<TopN<u64>> = None;
        for (c, chunk) in rows.chunks(512).enumerate() {
            let mut heap = TopN::new(top);
            for (offset, &(lane, pue, wsi)) in chunk.iter().enumerate() {
                let a = &aggregates[lane];
                let key = a.direct_l * wsi + a.indirect_per_pue_l * pue;
                let index = (c * 512 + offset) as u64;
                heap.push(key, index, index);
            }
            match &mut merged {
                Some(m) => m.merge(heap),
                None => merged = Some(heap),
            }
        }
        merged.map_or(0, |m| m.into_sorted().len())
    });
    out.tally.record(if kept == top.min(cells) {
        Ok(())
    } else {
        Err(format!("top-N kept {kept} rows"))
    });

    let parts = ms(comb_ns) + ms(apply_ns) + ms(key_ns) + aggregate_ms + topn_ms;
    let n = cells as f64;
    out.metrics = vec![
        ("scenario.sweep_parse_ms", parse_ms),
        ("scenario.combination_us", comb_ns as f64 / 1e3 / n),
        ("scenario.apply_overrides_us", apply_ns as f64 / 1e3 / n),
        ("core.energy_key_us", key_ns as f64 / 1e3 / n),
        ("core.aggregate_ms", aggregate_ms),
        ("core.lane_dedup_ratio", requests.len() as f64 / n),
        ("core.workload_sims", sims as f64),
        ("core.topn_ms", topn_ms),
        ("scenario.evaluate_1t_ms", eval_ms),
        ("scenario.sweep_unattributed_ms", eval_ms - parts),
    ];
    out.aux = vec![
        ("total_ms", total_ms),
        ("attributed_ms", total_ms - (eval_ms - parts)),
    ];
    Ok(out)
}

/// Workload simulations run so far: misses of the whole-year cache plus
/// misses of the batch kernel's energy-series cache.
fn workload_sims() -> u64 {
    let batch_misses = thirstyflops::obs::registry::counters_snapshot()
        .into_iter()
        .find(|(name, _)| name.contains("misses_total") && name.contains("batch_energy"))
        .map_or(0, |(_, v)| v);
    simcache::stats().system_years.misses + batch_misses
}

/// A traced replay of `inputs` against `server`, with the server's
/// body-cache hits ÷ lookups over it (`/v1/cache/stats` deltas).
fn traced_replay(
    server: &Server,
    inputs: &workloads::Inputs,
    expected: &[Expected],
    connections: usize,
    rec: &mut Recorder,
) -> Result<(f64, client::Replay), String> {
    let mut conn = server.ready()?;
    let (h0, m0) = crate::procs::body_cache(&mut conn)?;
    drop(conn);
    let id = rec.open("serve.replay");
    let start = rec.spans[id].start_ns;
    let r = client::replay(&server.addr, connections, inputs, expected);
    rec.close(id);
    let spans: Vec<(u64, u64)> = r
        .ends_ns
        .iter()
        .zip(&r.latencies_ns)
        .map(|(&end, &latency)| (start + end.saturating_sub(latency), start + end))
        .collect();
    rec.extend("serve.roundtrip", id, &spans);
    let mut conn = Conn::connect(&server.addr)?;
    let (h1, m1) = crate::procs::body_cache(&mut conn)?;
    let lookups = (h1 - h0) + (m1 - m0);
    let ratio = if lookups == 0 {
        0.0
    } else {
        (h1 - h0) as f64 / lookups as f64
    };
    Ok((ratio, r))
}

fn serve(seed: u64, bin: &str, rec: &mut Recorder) -> Result<ProbeOut, String> {
    let mut out = ProbeOut::default();
    let inputs = workloads::warm_inputs(seed)?;
    let expected = workloads::expectations(&inputs, 1);
    let (wires, plan) = (&inputs.wires, &inputs.plan);
    let n = plan.len() as f64;

    // In process, one layer at a time over the whole plan.
    let layers = rec.open("serve_warm.layers");
    let (requests, parse_ms) = rec.time("serve.parse", || {
        plan.iter()
            .map(|&t| http::read_request(&mut wires[t].as_slice()))
            .collect::<Vec<_>>()
    });
    let requests: Vec<http::Request> = requests
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("parse: {e}"))?;
    let (routed, route_ms) = rec.time("serve.route", || {
        requests
            .iter()
            .filter(|r| router::route(&r.path).is_ok() && Query::parse(&r.query).is_ok())
            .count()
    });
    out.tally.record(if routed == requests.len() {
        Ok(())
    } else {
        Err(format!(
            "{} requests failed to route",
            requests.len() - routed
        ))
    });
    let state = AppState::default();
    for wire in wires {
        if let Ok(req) = http::read_request(&mut wire.as_slice()) {
            handlers::handle(&req, &state);
        }
    }
    let (responses, handle_ms) = rec.time("serve.handle", || {
        requests
            .iter()
            .map(|r| handlers::handle(r, &state))
            .collect::<Vec<_>>()
    });
    let (_, encode_ms) = rec.time("serve.encode", || {
        responses
            .iter()
            .map(|r| black_box(r.to_bytes(false)).len())
            .sum::<usize>()
    });
    rec.close(layers);
    for (&t, resp) in plan.iter().zip(&responses) {
        out.tally
            .record(expected[t].check(resp.status, resp.body.as_bytes()));
    }

    // Over the socket, against a separate server process.
    let server = Server::spawn(bin, Workload::ServeWarm.workers())?;
    let mut conn = server.ready()?;
    for (wire, want) in wires.iter().zip(&expected) {
        let outcome = conn
            .exchange(wire)
            .and_then(|(status, body)| want.check(status, body));
        out.tally.record(outcome);
    }
    drop(conn);
    let (hit_ratio, r) = traced_replay(&server, &inputs, &expected, 1, rec)?;
    out.tally.absorb(r.tally.clone());
    server.stop();

    let us = |ms: f64| ms * 1e3 / n;
    let roundtrip = r.latencies_ns.iter().sum::<u64>() as f64 / 1e3 / n;
    let inside = us(parse_ms) + us(route_ms) + us(handle_ms) + us(encode_ms);
    out.metrics = vec![
        ("serve.parse_us", us(parse_ms)),
        ("serve.route_us", us(route_ms)),
        ("serve.handle_us", us(handle_ms)),
        ("serve.encode_us", us(encode_ms)),
        ("serve.roundtrip_us", roundtrip),
        ("serve.transport_us", roundtrip - inside),
        ("serve.body_hit_ratio", hit_ratio),
    ];
    let total_ms = r.elapsed.as_secs_f64() * 1e3;
    out.aux = vec![
        ("total_ms", total_ms),
        ("attributed_ms", total_ms * inside / roundtrip),
    ];
    Ok(out)
}

fn scenario_miss(seed: u64, bin: &str, rec: &mut Recorder) -> Result<ProbeOut, String> {
    let mut out = ProbeOut::default();
    let inputs = workloads::miss_inputs(seed);
    let (wires, plan) = (&inputs.wires, &inputs.plan);
    // Every distinct body once, first-appearance order, each a full miss:
    // a fresh handler state, and year caches warmed only by the bodies
    // before it, as in the server.
    let order = first_appearance(plan);
    let before = simcache::stats().system_years;
    let misses = rec.open("scenario_misses.handle");
    let mut expected = vec![Expected::Exact(Vec::new()); wires.len()];
    let mut handle_ms = 0.0;
    for &b in &order {
        let req = http::read_request(&mut wires[b].as_slice()).map_err(|e| format!("{e}"))?;
        let state = AppState::default();
        let (resp, ms) = rec.time("serve.handle_miss", || handlers::handle(&req, &state));
        handle_ms += ms;
        out.tally.record(if resp.status == 200 {
            Ok(())
        } else {
            Err(format!("body {b}: status {}", resp.status))
        });
        expected[b] = Expected::Exact(resp.body.as_bytes().to_vec());
    }
    rec.close(misses);
    let after = simcache::stats().system_years;
    let (hits, year_misses) = (after.hits - before.hits, after.misses - before.misses);
    out.digest = Some(bodies_digest(&expected));

    let server = Server::spawn(bin, Workload::ScenarioMisses.workers())?;
    let (hit_ratio, r) = traced_replay(&server, &inputs, &expected, 2, rec)?;
    out.tally.absorb(r.tally.clone());
    server.stop();

    out.metrics = vec![
        ("core.year_misses", year_misses as f64),
        (
            "core.year_hit_ratio",
            hits as f64 / (hits + year_misses).max(1) as f64,
        ),
        ("serve.handle_miss_ms", handle_ms / order.len() as f64),
    ];
    out.aux = vec![
        ("total_ms", r.elapsed.as_secs_f64() * 1e3),
        ("handle_ms", handle_ms),
        ("body_hit_ratio", hit_ratio),
    ];
    Ok(out)
}

fn scenario_parts(seed: u64, rec: &mut Recorder) -> Result<ProbeOut, String> {
    let mut out = ProbeOut::default();
    let bodies = crate::mix::scenario_bodies(seed, crate::mix::MISS_DISTINCT);
    let plan =
        crate::mix::scenario_plan(seed, crate::mix::MISS_DISTINCT, crate::mix::MISS_REQUESTS);
    let order = first_appearance(&plan);
    let err = |e: scenario::ScenarioError| e.to_string();
    let mut rendered = vec![Expected::Exact(Vec::new()); bodies.len()];
    let (mut parse_ms, mut render_ms) = (0.0, 0.0);
    let (mut spec_ms, mut post_ms, mut spec_n) = (0.0, 0.0, 0usize);
    let parts = rec.open("scenario_misses.parts");
    for &b in &order {
        let (spec, ms) = rec.time("scenario.spec_parse", || {
            ScenarioSpec::from_json(&bodies[b].text)
        });
        parse_ms += ms;
        let spec = spec.map_err(err)?;
        let (outcome, ms) = rec.time("scenario.evaluate", || scenario::evaluate(&spec));
        if bodies[b].spec_level {
            spec_ms += ms;
            spec_n += 1;
        } else {
            post_ms += ms;
        }
        let outcome = outcome.map_err(err)?;
        let (json, ms) = rec.time("serve.render", || api::to_json(&outcome));
        render_ms += ms;
        rendered[b] = Expected::Exact(json.into_bytes());
    }
    let total_ms = rec.close(parts);
    out.digest = Some(bodies_digest(&rendered));

    let n = order.len() as f64;
    out.metrics = vec![
        ("scenario.spec_parse_us", parse_ms * 1e3 / n),
        ("scenario.evaluate_ms", (spec_ms + post_ms) / n),
        ("scenario.evaluate_spec_ms", spec_ms / spec_n.max(1) as f64),
        (
            "scenario.evaluate_post_ms",
            post_ms / (order.len() - spec_n).max(1) as f64,
        ),
        ("serve.render_us", render_ms * 1e3 / n),
    ];
    out.aux = vec![("parts_ms", total_ms)];
    Ok(out)
}

/// Each distinct plan entry once, in order of first appearance.
fn first_appearance(plan: &[usize]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    plan.iter().copied().filter(|b| seen.insert(*b)).collect()
}

/// One digest over every expected body, body order.
fn bodies_digest(bodies: &[Expected]) -> Digest {
    let mut all = Vec::new();
    for body in bodies {
        if let Expected::Exact(bytes) = body {
            all.extend_from_slice(bytes);
            all.push(b'\n');
        }
    }
    Digest::of(&all)
}
