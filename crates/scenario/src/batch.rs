//! Lane-major streaming sweep evaluation over the batched K-lane kernel.
//!
//! Each evaluation compiles the sweep once ([`SweepPlan`]): every
//! override section's sub-combinations are parsed, validated and
//! applied to the base system up front, so a cell costs one pick per
//! section, a patch of a reused `SystemSpec` and the metric arithmetic —
//! never a spec rebuild.
//!
//! A cell's kernel lane depends only on what it picks from three
//! sections, `nodes`, `climate` and `grid`, and its expansion index is
//! the sum of one share per section ([`SweepPlan::offset`]). So the
//! evaluator works lane-major. It walks the lane sub-combinations in
//! windows of [`WINDOW`]; for each window it reduces the window's lanes
//! once, in parallel 32-lane kernel passes (`core::batch`), then fans
//! the window's cells out in 512-cell chunks that read the lane table
//! and, under `top_n`, fold their rows into a bounded [`TopN`] heap. The
//! 101,250-cell siting sweep reduces its 50 lanes once each. Names,
//! deltas and rows are built only for the rows the report keeps. The
//! memory floor is one window's lanes and chunk folds plus the heap and
//! the compiled sections, never the cross product.
//!
//! **Determinism.** Rows depend only on their combination index, the
//! memo layers are keyed on values (racing computes are bit-identical),
//! plain sweeps put their rows back in expansion order, and the top-N
//! kept set is push-order-independent — so sweep reports are
//! byte-identical at every thread count, and row-identical to
//! evaluating each combination on its own. Windows, lanes and chunks
//! are pure functions of the compiled sections, so the kernel and sweep
//! counters are too (`docs/CONCURRENCY.md`, enforced by `tests/batch.rs`
//! and `tests/determinism.rs`).

use std::ops::Range;
use std::sync::OnceLock;

use rayon::prelude::*;
use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::batch::{BatchContext, LaneAggregates, LaneRequest, TopN};
use thirstyflops_grid::RegionId;
use thirstyflops_obs::span;
use thirstyflops_obs::trace::propagate;
use thirstyflops_obs::Counter;
use thirstyflops_units::{Pue, WaterScarcityIndex};
use thirstyflops_weather::ClimatePreset;

use crate::engine::{self, ScenarioMetrics};
use crate::spec::{Overrides, ScenarioError};
use crate::sweep::{
    rank_key, SweepPlan, SweepReport, SweepRow, SweepSpec, Variants, DEFAULT_RANK_METRIC,
};

/// Lane sub-combinations reduced per window. 4,096 `LaneAggregates` are
/// about 0.6 MB, so a served sweep's memory stays bounded however many
/// distinct lanes it has (up to 10⁶). Fixed — results must not depend
/// on it, and `tests/batch.rs` checks a sweep with more lanes than one
/// window against per-cell evaluation.
const WINDOW: usize = 4096;

/// Cells per chunk: small enough that a chunk's fold is noise next to
/// the heap, large enough that per-chunk overhead (a spec clone, a
/// heap, a span) amortizes. Fixed like [`WINDOW`].
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

/// The sections a cell's kernel lane reads, slowest first: the workload
/// key's node count, the WUE series and its scale, and the grid series
/// and their mix factors.
const LANE_SECTIONS: [usize; 3] = [NODES, CLIMATE, GRID];
/// The sections only the metric arithmetic reads, slowest first.
const ROW_SECTIONS: [usize; 5] = [PUE, WSI, RECLAIMED, WATER_PRICE, FLEET_UPGRADE];

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

/// Sweep chunks evaluated (`⌈cells / 512⌉` per lane window).
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
    /// Its share of a cell's expansion index ([`SweepPlan::offset`]).
    offset: usize,
}

impl Variant {
    /// Applies a validated section to the base system; `None` where
    /// that (or its grid factors) fails.
    fn compile(
        overrides: Overrides,
        offset: usize,
        base: &SystemSpec,
        ctx: &BatchContext,
    ) -> Option<Variant> {
        let applied = engine::apply_spec_overrides(base, &overrides).ok()?;
        let factors = match &overrides.grid {
            Some(g) => engine::lane_grid_factors(g, &applied, ctx).ok()?,
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
            offset,
        })
    }
}

/// `value`'s digits under `radices`, the last digit fastest.
fn digits<const N: usize>(mut value: usize, radices: &[usize; N]) -> [usize; N] {
    let mut out = [0; N];
    for k in (0..N).rev() {
        out[k] = value % radices[k];
        value /= radices[k];
    }
    out
}

/// Steps `digits` to the next value under `radices`; true when it
/// wrapped back to all zeros.
fn advance<const N: usize>(digits: &mut [usize; N], radices: &[usize; N]) -> bool {
    for k in (0..N).rev() {
        digits[k] += 1;
        if digits[k] < radices[k] {
            return false;
        }
        digits[k] = 0;
    }
    true
}

/// One lane of a window: its lane-section picks, in `LANE_SECTIONS`
/// order.
type Lane<'v> = [&'v Variant; 3];

/// State shared by every window and chunk of one sweep evaluation.
struct Shared<'a> {
    sweep: &'a SweepSpec,
    plan: SweepPlan,
    /// Per section, its compiled sub-combinations.
    sections: Vec<Vec<Variant>>,
    base_spec: SystemSpec,
    rank_metric: &'a str,
    /// Sub-combinations per lane section and per row section.
    lane_counts: [usize; 3],
    row_counts: [usize; 5],
    /// Cells per lane: the product of `row_counts`.
    rows_per_lane: usize,
}

impl Shared<'_> {
    /// Lane `lane`'s picks and its kernel request. Only the three lane
    /// sections reach the kernel, so the rest of the spec stays the
    /// base system's.
    fn lane(&self, lane: usize) -> (Lane<'_>, LaneRequest) {
        let subs = digits(lane, &self.lane_counts);
        let picks = std::array::from_fn(|k| &self.sections[LANE_SECTIONS[k]][subs[k]]);
        let [nodes, climate, grid] = picks;
        let mut spec = self.base_spec.clone();
        spec.nodes = nodes.applied.nodes;
        spec.climate = climate.applied.climate;
        spec.region = grid.applied.region;
        let request = LaneRequest {
            spec,
            seed: self.sweep.seed,
            wue_scale: climate.overrides.climate.as_ref().and_then(|c| c.wue_scale),
            ewf_scale: grid.factors.map(|(k_ewf, _)| k_ewf),
            carbon_scale: grid.factors.map(|(_, k_ci)| k_ci),
        };
        (picks, request)
    }
}

/// The error of cell `index`, one of whose sections did not compile:
/// exactly what rebuilding the cell from its full spec reports.
fn cell_error(
    sweep: &SweepSpec,
    base_spec: &SystemSpec,
    ctx: &BatchContext,
    index: usize,
) -> ScenarioError {
    let rebuilt = sweep.combination(index).and_then(|spec| {
        let system = engine::apply_spec_overrides(base_spec, &spec.overrides)?;
        match &spec.overrides.grid {
            Some(g) => engine::lane_grid_factors(g, &system, ctx).map(drop),
            None => Ok(()),
        }
    });
    rebuilt.expect_err("a cell with an invalid section fails its rebuild")
}

/// A chunk's contribution: every row's metrics with its index (plain
/// sweeps) or its bounded top-N fold (streaming sweeps).
enum Fold {
    All(Vec<(usize, ScenarioMetrics)>),
    Top(TopN<ScenarioMetrics>),
}

impl Fold {
    fn push(&mut self, index: usize, metrics: ScenarioMetrics, rank_metric: &str) {
        match self {
            Fold::All(rows) => rows.push((index, metrics)),
            Fold::Top(heap) => heap.push(rank_key(&metrics, rank_metric), index as u64, metrics),
        }
    }
}

/// Reduces the lanes in `window` once, then folds every cell of those
/// lanes in fixed-size chunks.
fn evaluate_window(shared: &Shared<'_>, ctx: &BatchContext, window: Range<usize>) -> Vec<Fold> {
    let (lanes, requests): (Vec<Lane<'_>>, Vec<LaneRequest>) = {
        let _prepare = span::span(span::SWEEP_PREPARE);
        window.map(|lane| shared.lane(lane)).unzip()
    };
    let aggregates = ctx.aggregate(&requests);
    let cells = lanes.len() * shared.rows_per_lane;
    let starts: Vec<usize> = (0..cells).step_by(CHUNK).collect();
    starts
        .par_iter()
        .map(propagate(|&start| {
            evaluate_chunk(
                shared,
                &lanes,
                &aggregates,
                start..(start + CHUNK).min(cells),
            )
        }))
        .collect()
}

/// Folds a window's cells `cells`, numbered lane-major: cell `c` is row
/// `c % rows_per_lane` of the window's lane `c / rows_per_lane`.
fn evaluate_chunk(
    shared: &Shared<'_>,
    lanes: &[Lane<'_>],
    aggregates: &[LaneAggregates],
    cells: Range<usize>,
) -> Fold {
    let _span = span::span(span::SWEEP_CHUNK);
    chunks_counter().inc();
    cells_counter().add(cells.len() as u64);
    let mut fold = match shared.sweep.top_n {
        Some(n) => Fold::Top(TopN::new(usize::try_from(n).expect("top_n fits usize"))),
        None => Fold::All(Vec::with_capacity(cells.len())),
    };
    let _topn = span::span(span::TOPN);
    let mut spec = shared.base_spec.clone();
    let mut lane = cells.start / shared.rows_per_lane;
    let mut row = digits(cells.start % shared.rows_per_lane, &shared.row_counts);
    for _ in cells {
        let [nodes, climate, grid] = lanes[lane];
        let [pue, wsi, reclaimed, water_price, fleet_upgrade]: [&Variant; 5] =
            std::array::from_fn(|k| &shared.sections[ROW_SECTIONS[k]][row[k]]);
        spec.climate = climate.applied.climate;
        spec.region = grid.applied.region;
        spec.pue = pue.applied.pue;
        spec.nodes = nodes.applied.nodes;
        spec.site_wsi = wsi.applied.site_wsi;
        let index = [
            nodes,
            climate,
            grid,
            pue,
            wsi,
            reclaimed,
            water_price,
            fleet_upgrade,
        ]
        .iter()
        .map(|v| v.offset)
        .sum();
        let metrics = engine::finish_metrics(
            &spec,
            reclaimed.overrides.reclaimed.as_ref(),
            water_price.overrides.water_price.as_ref(),
            fleet_upgrade.overrides.fleet_upgrade.as_ref(),
            &aggregates[lane],
        );
        fold.push(index, metrics, shared.rank_metric);
        if advance(&mut row, &shared.row_counts) {
            lane += 1;
        }
    }
    fold
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
    let sections: Vec<Variants<Variant>> = compiled
        .into_iter()
        .enumerate()
        .map(|(section, variants)| {
            variants
                .into_iter()
                .enumerate()
                .map(|(sub, o)| {
                    let offset = plan.offset(section, sub);
                    o.and_then(|o| Variant::compile(o, offset, &base_spec, &ctx))
                })
                .collect()
        })
        .collect();
    // An invalid section fails the sweep at its first cell in expansion
    // order, as evaluating cell by cell would.
    let total = sweep.combination_count();
    if let Some(index) = plan.first_invalid(&sections, total) {
        return Err(cell_error(sweep, &base_spec, &ctx, index));
    }
    let sections: Vec<Vec<Variant>> = sections
        .into_iter()
        .map(|variants| variants.into_iter().flatten().collect())
        .collect();
    let lane_counts = LANE_SECTIONS.map(|s| sections[s].len());
    let row_counts = ROW_SECTIONS.map(|s| sections[s].len());
    let shared = Shared {
        sweep,
        plan,
        sections,
        base_spec,
        rank_metric: sweep.rank_by.as_deref().unwrap_or(DEFAULT_RANK_METRIC),
        lane_counts,
        row_counts,
        rows_per_lane: row_counts.iter().product(),
    };

    let lane_total = if total == 0 {
        0
    } else {
        lane_counts.iter().product()
    };
    let mut all = Vec::new();
    let mut top: Option<TopN<ScenarioMetrics>> = None;
    for start in (0..lane_total).step_by(WINDOW) {
        let window = start..(start + WINDOW).min(lane_total);
        for fold in evaluate_window(&shared, &ctx, window) {
            match fold {
                Fold::All(mut rows) => all.append(&mut rows),
                Fold::Top(heap) => match &mut top {
                    Some(merged) => merged.merge(heap),
                    None => top = Some(heap),
                },
            }
        }
    }
    let kept: Vec<(usize, ScenarioMetrics)> = match top {
        Some(heap) => heap
            .into_sorted()
            .into_iter()
            .map(|e| (e.index as usize, e.item))
            .collect(),
        None => {
            // Back to expansion order.
            all.sort_unstable_by_key(|&(index, _)| index);
            all
        }
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
