//! Chunked streaming sweep evaluation over the batched K-lane kernel.
//!
//! Each evaluation compiles the sweep once ([`SweepPlan`]): every
//! override section's sub-combinations are parsed, validated and
//! applied to the base system up front, so a cell costs mixed-radix
//! arithmetic, one pick per section, a patch of a reused `SystemSpec`
//! and the metric arithmetic — never a spec rebuild. Combination indices
//! are processed in fixed-size chunks (rayon fan-out over the chunks);
//! each chunk resolves its rows' annual aggregates through one
//! `core::batch` kernel call — deduplicated on an integer lane key, so a
//! 10⁵-cell sweep whose axes mostly reinterpret the same series runs a
//! few hundred lanes — and, under `top_n`, folds its rows into a bounded
//! [`TopN`] heap before the next chunk starts. Names, deltas and rows
//! are built only for the rows the report keeps. The memory floor is
//! one chunk plus the heap and the compiled sections, never the cross
//! product.
//!
//! **Determinism.** Rows depend only on their combination index, the
//! aggregate cache is keyed on values (racing recomputes are
//! bit-identical), chunk results merge in chunk order, and the top-N
//! kept set is push-order-independent — so sweep reports are
//! byte-identical at every thread count and chunk size, and row-identical
//! to evaluating each combination on its own (`docs/CONCURRENCY.md`,
//! enforced by `tests/batch.rs` and `./ci.sh batch-smoke`).

use std::collections::HashMap;
use std::sync::OnceLock;

use rayon::prelude::*;
use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::batch::{BatchContext, LaneRequest, TopN};
use thirstyflops_grid::RegionId;
use thirstyflops_obs::span;
use thirstyflops_obs::trace::propagate;
use thirstyflops_obs::Counter;
use thirstyflops_units::{Pue, WaterScarcityIndex};
use thirstyflops_weather::ClimatePreset;

use crate::engine::{self, ScenarioMetrics};
use crate::spec::{Overrides, ScenarioError};
use crate::sweep::{
    rank_key, SweepPlan, SweepReport, SweepRow, SweepSpec, Variants, DEFAULT_RANK_METRIC, SECTIONS,
};

/// Combinations per chunk: small enough that a materialized chunk is
/// noise next to the heap, large enough that per-chunk overhead (lock
/// traffic, kernel launch) amortizes. Fixed — results must not depend
/// on it, and `tests/batch.rs` checks they don't by comparing a
/// multi-chunk sweep against per-cell evaluation.
const CHUNK: usize = 512;

// Positions in `SECTIONS`.
const CLIMATE: usize = 0;
const GRID: usize = 1;
const PUE: usize = 2;
const NODES: usize = 3;
const WSI: usize = 4;
const RECLAIMED: usize = 5;
const WATER_PRICE: usize = 6;
const FLEET_UPGRADE: usize = 7;

/// Sweep cells (combinations) streamed through chunk evaluation.
/// Deterministic: the expansion size is a pure function of the spec.
fn cells_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        thirstyflops_obs::registry::global().counter(
            "thirstyflops_sweep_cells_total",
            "Sweep combinations streamed through chunk evaluation.",
        )
    })
}

/// Sweep chunks evaluated (`⌈cells / 512⌉` per sweep).
fn chunks_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        thirstyflops_obs::registry::global().counter(
            "thirstyflops_sweep_chunks_total",
            "Fixed-size sweep chunks evaluated.",
        )
    })
}

/// The `SystemSpec` fields overrides replace
/// ([`engine::apply_spec_overrides`]); each is owned by one section.
#[derive(Debug, Clone, Copy)]
struct Patch {
    climate: ClimatePreset,
    region: RegionId,
    pue: Pue,
    nodes: u32,
    site_wsi: WaterScarcityIndex,
}

/// One section sub-combination, compiled once per evaluation.
#[derive(Debug)]
struct Variant {
    /// The typed section (every other section unset).
    overrides: Overrides,
    /// The base system's overridable fields with this section applied.
    applied: Patch,
    /// EWF/carbon scale factors of a grid `mix` / `mix_delta`.
    factors: Option<(f64, f64)>,
}

impl Variant {
    /// Applies a validated section to the base system; `None` where
    /// that (or its grid factors) fails.
    fn compile(overrides: Overrides, base: &SystemSpec, ctx: &BatchContext) -> Option<Variant> {
        let applied = engine::apply_spec_overrides(base, &overrides).ok()?;
        let factors = match &overrides.grid {
            Some(g) => {
                let (ewf_mean, carbon_mean) = ctx.region_means(applied.region);
                engine::grid_factors(g, &applied, ewf_mean, carbon_mean).ok()?
            }
            None => None,
        };
        Some(Variant {
            applied: Patch {
                climate: applied.climate,
                region: applied.region,
                pue: applied.pue,
                nodes: applied.nodes,
                site_wsi: applied.site_wsi,
            },
            factors,
            overrides,
        })
    }
}

/// The compiled sections one cell picks, by position in `SECTIONS`.
type Cell<'v> = [&'v Variant; SECTIONS.len()];

/// Writes a cell's overridden fields into a reused copy of the base
/// system.
fn patch(spec: &mut SystemSpec, cell: &Cell<'_>) {
    spec.climate = cell[CLIMATE].applied.climate;
    spec.region = cell[GRID].applied.region;
    spec.pue = cell[PUE].applied.pue;
    spec.nodes = cell[NODES].applied.nodes;
    spec.site_wsi = cell[WSI].applied.site_wsi;
}

fn wue_scale(cell: &Cell<'_>) -> Option<f64> {
    cell[CLIMATE]
        .overrides
        .climate
        .as_ref()
        .and_then(|c| c.wue_scale)
}

/// Everything a cell's kernel aggregates depend on; rows sharing a key
/// share one lane. Within one sweep the system, utilization, node
/// hardware and seed are fixed, so of the workload memo key's inputs
/// only the node count varies; the rest are the series identities and
/// the bits of their scales.
type LaneKey = (
    u32,
    ClimatePreset,
    Option<u64>,
    RegionId,
    Option<u64>,
    Option<u64>,
);

fn lane_key(cell: &Cell<'_>) -> LaneKey {
    let factors = cell[GRID].factors;
    (
        cell[NODES].applied.nodes,
        cell[CLIMATE].applied.climate,
        wue_scale(cell).map(f64::to_bits),
        cell[GRID].applied.region,
        factors.map(|(k_ewf, _)| k_ewf.to_bits()),
        factors.map(|(_, k_ci)| k_ci.to_bits()),
    )
}

/// State shared by every chunk of one sweep evaluation.
struct Shared<'a> {
    sweep: &'a SweepSpec,
    plan: SweepPlan,
    /// Per section, its compiled sub-combinations.
    sections: Vec<Variants<Variant>>,
    base_spec: SystemSpec,
    rank_metric: &'a str,
    ctx: BatchContext,
}

impl Shared<'_> {
    /// The error of a cell one of whose sections did not compile:
    /// exactly what rebuilding the cell from its full spec reports.
    fn cell_error(&self, index: usize) -> ScenarioError {
        let rebuilt = self.sweep.combination(index).and_then(|spec| {
            let system = engine::apply_spec_overrides(&self.base_spec, &spec.overrides)?;
            match &spec.overrides.grid {
                Some(g) => {
                    let (ewf_mean, carbon_mean) = self.ctx.region_means(system.region);
                    engine::grid_factors(g, &system, ewf_mean, carbon_mean).map(drop)
                }
                None => Ok(()),
            }
        });
        rebuilt.expect_err("a cell with an invalid section fails its rebuild")
    }
}

/// A chunk's contribution: every row's metrics in expansion order
/// (plain sweeps) or its bounded top-N fold (streaming sweeps).
enum Fold {
    All(Vec<ScenarioMetrics>),
    Top(TopN<ScenarioMetrics>),
}

impl Fold {
    fn push(&mut self, index: usize, metrics: ScenarioMetrics, rank_metric: &str) {
        match self {
            Fold::All(rows) => rows.push(metrics),
            Fold::Top(heap) => heap.push(rank_key(&metrics, rank_metric), index as u64, metrics),
        }
    }
}

fn evaluate_chunk(shared: &Shared<'_>, start: usize, end: usize) -> Result<Fold, ScenarioError> {
    let _span = span::span(span::SWEEP_CHUNK);
    chunks_counter().inc();
    cells_counter().add((end - start) as u64);
    let mut fold = match shared.sweep.top_n {
        Some(n) => Fold::Top(TopN::new(usize::try_from(n).expect("top_n fits usize"))),
        None => Fold::All(Vec::with_capacity(end - start)),
    };
    let mut spec = shared.base_spec.clone();
    let mut cells: Vec<(Cell<'_>, usize)> = Vec::with_capacity(end - start);
    let mut lanes: HashMap<LaneKey, usize> = HashMap::new();
    let mut requests: Vec<LaneRequest> = Vec::new();
    {
        let _prepare = span::span(span::SWEEP_PREPARE);
        for index in start..end {
            let Some(cell) = shared.plan.pick(&shared.sections, index) else {
                return Err(shared.cell_error(index));
            };
            let lane = *lanes.entry(lane_key(&cell)).or_insert_with(|| {
                patch(&mut spec, &cell);
                let factors = cell[GRID].factors;
                requests.push(LaneRequest {
                    spec: spec.clone(),
                    seed: shared.sweep.seed,
                    wue_scale: wue_scale(&cell),
                    ewf_scale: factors.map(|(k_ewf, _)| k_ewf),
                    carbon_scale: factors.map(|(_, k_ci)| k_ci),
                });
                requests.len() - 1
            });
            cells.push((cell, lane));
        }
    }

    // Each chunk dedups and resolves its own rows' aggregates in one
    // kernel call, first-appearance order. Chunks used to share a
    // cross-chunk memo map, but which chunk resolved a key first then
    // depended on scheduling — making the kernel's lane/pass counters
    // (and span invocation counts) thread-count-dependent. Per-chunk
    // resolution makes them pure functions of the expansion; the cost is
    // re-aggregating keys that span a chunk boundary, a few hundred
    // cheap lane reductions on the flagship 10⁵-cell sweep (the
    // expensive workload simulations stay deduplicated by the workload
    // memo layer). See `docs/PERFORMANCE.md`.
    let aggregates = shared.ctx.aggregate(&requests);

    let _topn = span::span(span::TOPN);
    for (index, (cell, lane)) in (start..end).zip(&cells) {
        patch(&mut spec, cell);
        let metrics = engine::finish_metrics(
            &spec,
            cell[RECLAIMED].overrides.reclaimed.as_ref(),
            cell[WATER_PRICE].overrides.water_price.as_ref(),
            cell[FLEET_UPGRADE].overrides.fleet_upgrade.as_ref(),
            &aggregates[*lane],
        );
        fold.push(index, metrics, shared.rank_metric);
    }
    Ok(fold)
}

/// The streaming sweep evaluator behind [`crate::sweep::evaluate_sweep`]
/// (which owns the ceiling / rank-metric guards).
pub(crate) fn evaluate_sweep_streaming(sweep: &SweepSpec) -> Result<SweepReport, ScenarioError> {
    let base_id: SystemId = sweep.base.parse().map_err(|e| {
        ScenarioError::Invalid(format!("{e} — `thirstyflops systems` lists the catalog"))
    })?;
    let base_spec = SystemSpec::reference(base_id);
    // The shared baseline, exactly as `evaluate` computes it.
    let [baseline] = engine::metrics([(&base_spec, sweep.seed, &Overrides::default())])?;
    let ctx = BatchContext::new();
    let (plan, compiled) = SweepPlan::compile(sweep);
    let sections = compiled
        .into_iter()
        .map(|variants| {
            variants
                .into_iter()
                .map(|o| o.and_then(|o| Variant::compile(o, &base_spec, &ctx)))
                .collect()
        })
        .collect();
    let shared = Shared {
        sweep,
        plan,
        sections,
        base_spec,
        rank_metric: sweep.rank_by.as_deref().unwrap_or(DEFAULT_RANK_METRIC),
        ctx,
    };
    let total = sweep.combination_count();
    let starts: Vec<usize> = (0..total).step_by(CHUNK).collect();
    let outputs: Vec<Result<Fold, ScenarioError>> = starts
        .par_iter()
        .map(propagate(|&start| {
            evaluate_chunk(&shared, start, (start + CHUNK).min(total))
        }))
        .collect();

    // Merge in chunk (= expansion) order; the first error in expansion
    // order wins, as the eager path's sequential fold did.
    let mut all = Vec::new();
    let mut top: Option<TopN<ScenarioMetrics>> = None;
    for output in outputs {
        match output? {
            Fold::All(mut rows) => all.append(&mut rows),
            Fold::Top(heap) => match &mut top {
                Some(merged) => merged.merge(heap),
                None => top = Some(heap),
            },
        }
    }
    let kept: Vec<(usize, ScenarioMetrics)> = match top {
        Some(heap) => heap
            .into_sorted()
            .into_iter()
            .map(|e| (e.index as usize, e.item))
            .collect(),
        None => all.into_iter().enumerate().collect(),
    };
    let rows = kept
        .into_iter()
        .map(|(index, scenario)| SweepRow {
            name: shared.plan.name(index),
            deltas: engine::deltas(&baseline, &scenario),
            scenario,
        })
        .collect();
    Ok(SweepReport {
        name: sweep.name.clone(),
        base: sweep.base.clone(),
        seed: sweep.seed,
        fingerprint: sweep.fingerprint(),
        scenario_count: total as u64,
        top_n: sweep.top_n,
        rank_by: sweep.top_n.map(|_| shared.rank_metric.to_string()),
        baseline,
        rows,
    })
}
