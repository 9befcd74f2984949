//! Batched K-lane evaluation: score K system configurations in one pass
//! over the hour axis instead of K scalar walks.
//!
//! Every scenario measurement — a single run's baseline and scenario, a
//! sweep's baseline and each of its cells — is the same set of annual
//! reductions (`Σe`, `Σe·w`, `Σe·f`, `Σe·c`, means, monthly sums) over
//! hourly series the memo layers already hold. This module runs them
//! for K lanes in one pass of the K-lane kernel
//! ([`thirstyflops_timeseries::lanes::annual_reductions_scaled`]),
//! reading the shared series in place and applying each lane's
//! reinterpretation scales on the fly, so no lane copies a year.
//!
//! **Bit-identity contract.** The batch path is *invisible*: per lane it
//! performs the exact operation sequence of the scalar expressions —
//! the per-lane ChaCha12 workload stream comes from the same
//! `workload_series` helper [`SystemYear::simulate_uncached`] uses
//! (identical seeding: `seed ^ id·φ64`), scales evaluate `v·k` exactly
//! like [`HourlySeries::scale`], and every reduction folds hours in
//! ascending order like the scalar kernels. The shared sub-simulations
//! (workload, grid and climate → WUE series) always come from the
//! process-wide memo layers of [`crate::simcache`], which
//! [`SystemYear::simulate`] reads too. `tests/batch.rs` proves the
//! batched aggregates bit-identical to the scalar reductions over the
//! [`SystemYear::simulate_uncached`] oracle on proptest-random spec
//! batches, and compiled sweeps row-identical to per-cell evaluation;
//! `tests/scenario_oracle.rs` holds whole scenario evaluations to the
//! scalar expressions.
//!
//! [`HourlySeries::scale`]: thirstyflops_timeseries::HourlySeries::scale

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use thirstyflops_obs::span;
use thirstyflops_obs::Counter;

use thirstyflops_catalog::SystemSpec;
use thirstyflops_grid::RegionId;
use thirstyflops_timeseries::lanes::{self, LaneSource};
use thirstyflops_timeseries::DistributionSummary;
use thirstyflops_units::Liters;

use crate::operational::OperationalBreakdown;
use crate::simcache;
use crate::simulate::{SystemYear, WorkloadKey};

pub use thirstyflops_timeseries::lanes::LaneAggregates;

/// Lanes evaluated per kernel pass. Bounds the per-pass accumulators and
/// source slices the hour loop cycles through — lanes are independent,
/// so splitting a batch across passes cannot change any lane's bits.
const LANES_PER_PASS: usize = 32;

// ------------------------------------------------------------- counters
//
// All three live in the workspace metrics registry (exposed both here
// via [`stats`] and in Prometheus form at `GET /v1/metrics`). Their
// values are deterministic: lanes/passes are pure functions of the
// sweep expansion (each sweep chunk dedups and aggregates its own rows,
// see `scenario::batch`), and top-N pushes count offered rows.

fn lanes_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        thirstyflops_obs::registry::global().counter(
            "thirstyflops_batch_lanes_total",
            "Lanes aggregated by the K-lane kernel (scenario runs, sweep baselines and cells, experiment years).",
        )
    })
}

fn passes_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        thirstyflops_obs::registry::global().counter(
            "thirstyflops_batch_kernel_passes_total",
            "Fused K-lane kernel passes executed.",
        )
    })
}

fn topn_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        thirstyflops_obs::registry::global().counter(
            "thirstyflops_batch_topn_pushes_total",
            "Rows offered to streaming top-N aggregators.",
        )
    })
}

fn lane_width_hist() -> &'static std::sync::Arc<thirstyflops_obs::LatencyHistogram> {
    static H: OnceLock<std::sync::Arc<thirstyflops_obs::LatencyHistogram>> = OnceLock::new();
    H.get_or_init(|| {
        thirstyflops_obs::registry::global().histogram(
            "thirstyflops_batch_lane_width",
            "Lanes per fused kernel pass (log2 buckets).",
        )
    })
}

/// Process-wide batch counters, served in the `batch` section of
/// `GET /v1/cache/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BatchStats {
    /// Lanes aggregated by the K-lane kernel since process start.
    pub lanes: u64,
    /// Kernel passes (lane chunks) executed.
    pub chunks: u64,
    /// Rows offered to streaming top-N aggregators.
    pub topn_rows: u64,
}

/// Current counters.
pub fn stats() -> BatchStats {
    BatchStats {
        lanes: lanes_counter().get(),
        chunks: passes_counter().get(),
        topn_rows: topn_counter().get(),
    }
}

// ------------------------------------------------------------ the kernel

/// One lane of a batch: a system configuration plus the series
/// reinterpretation scales the scenario engine applies post-simulation.
/// `None` means "use the raw series" — identity is decided by the
/// *presence* of a scale, mirroring the override being set or not.
#[derive(Debug, Clone)]
pub struct LaneRequest {
    /// The (already transformed) system specification.
    pub spec: SystemSpec,
    /// Telemetry seed.
    pub seed: u64,
    /// WUE multiplier (`climate.wue_scale` override).
    pub wue_scale: Option<f64>,
    /// EWF multiplier (grid `mix` / `mix_delta` factor).
    pub ewf_scale: Option<f64>,
    /// Carbon-intensity multiplier (grid `mix` / `mix_delta` factor).
    pub carbon_scale: Option<f64>,
}

/// A lane's workload memo key, rendered. Lanes that differ only in
/// climate, region, PUE or WSI share one key and one energy series.
pub fn energy_key(spec: &SystemSpec, seed: u64) -> String {
    format!("{:?}", WorkloadKey::new(spec, seed))
}

/// A batch evaluation. Every sub-simulation it reads resolves through
/// the process-wide single-flight layers of [`crate::simcache`], so
/// sweeps keep warming the server's caches across requests.
#[derive(Debug, Default)]
pub struct BatchContext;

impl BatchContext {
    /// A context; all its state lives in the process-wide layers.
    pub fn new() -> Self {
        BatchContext
    }

    /// Annual means of the region's *unscaled* EWF and carbon series
    /// (bit-identical to a simulated year's `year.ewf.mean()` /
    /// `year.carbon.mean()`), which a grid-mix override's scale factors
    /// divide by.
    pub fn region_means(&self, region: RegionId) -> (f64, f64) {
        let grid = simcache::grid_year(region);
        (grid.ewf().mean(), grid.carbon().mean())
    }

    /// Evaluates a batch of lanes: every annual reduction of the
    /// (scaled) hourly series, once per `LANES_PER_PASS`-lane kernel
    /// pass. Per lane the result is bit-identical to the scalar
    /// expressions over [`SystemYear::simulate_uncached`] telemetry
    /// (`tests/batch.rs`).
    pub fn aggregate(&self, requests: &[LaneRequest]) -> Vec<LaneAggregates> {
        requests
            .chunks(LANES_PER_PASS)
            .flat_map(|block| self.aggregate_block(block))
            .collect()
    }

    fn aggregate_block(&self, block: &[LaneRequest]) -> Vec<LaneAggregates> {
        // Resolve shared sub-simulations. Lanes overwhelmingly alias a
        // handful of unique series (energy per workload key, WUE per
        // climate, EWF/carbon per region), which the kernel reads in
        // place.
        let resolved: Vec<_> = block
            .iter()
            .map(|req| {
                (
                    simcache::workload(&req.spec, req.seed),
                    simcache::wue_series(req.spec.climate),
                    simcache::grid_year(req.spec.region),
                )
            })
            .collect();
        let sources: Vec<LaneSource<'_>> = resolved
            .iter()
            .zip(block)
            .map(|((workload, wue, grid), req)| LaneSource {
                energy: workload.1.values(),
                wue: wue.values(),
                ewf: grid.ewf().values(),
                carbon: grid.carbon().values(),
                wue_scale: req.wue_scale,
                ewf_scale: req.ewf_scale,
                carbon_scale: req.carbon_scale,
            })
            .collect();
        fused_pass(&sources)
    }
}

/// One counted kernel pass: every annual reduction of `sources` in one
/// fused sweep over the hour axis.
fn fused_pass(sources: &[LaneSource<'_>]) -> Vec<LaneAggregates> {
    let aggregates = {
        let _span = span::span(span::FUSED_REDUCTION);
        lanes::annual_reductions_scaled(sources)
    };
    let k = sources.len() as u64;
    lanes_counter().add(k);
    passes_counter().inc();
    lane_width_hist().record(k);
    aggregates
}

// ------------------------------------------------- experiment lane stats

/// Per-lane derived statistics over a batch of simulated years — the
/// fig06/07/08 inputs in one batched call instead of three per-system
/// loops. Lane order matches the input order.
#[derive(Debug, Clone)]
pub struct YearLaneStats {
    /// Eq. 6/7 operational breakdown per lane (fig07).
    pub operational: Vec<OperationalBreakdown>,
    /// Annual mean `WI = WUE + PUE·EWF` per lane (fig08).
    pub wi_mean: Vec<f64>,
    /// Annual mean WUE per lane.
    pub wue_mean: Vec<f64>,
    /// Annual mean EWF per lane.
    pub ewf_mean: Vec<f64>,
    /// WUE distribution summary per lane (fig06 box plots).
    pub wue_summary: Vec<DistributionSummary>,
    /// EWF distribution summary per lane (fig06 box plots).
    pub ewf_summary: Vec<DistributionSummary>,
}

/// Computes [`YearLaneStats`] for a batch of years in one K-lane kernel
/// pass over the years' own series. Bit-identical to the scalar
/// per-year expressions (`year.operational()`,
/// `year.water_intensity().mean()`, `year.wue.mean()`, …) — the
/// experiments' golden values pin this.
///
/// # Panics
/// Panics if `years` is empty.
pub fn year_lane_stats(years: &[Arc<SystemYear>]) -> YearLaneStats {
    let sources: Vec<LaneSource<'_>> = years
        .iter()
        .map(|y| LaneSource {
            energy: y.energy.values(),
            wue: y.wue.values(),
            ewf: y.ewf.values(),
            carbon: y.carbon.values(),
            wue_scale: None,
            ewf_scale: None,
            carbon_scale: None,
        })
        .collect();
    let aggregates = fused_pass(&sources);
    YearLaneStats {
        operational: aggregates
            .iter()
            .zip(years)
            .map(|(a, y)| OperationalBreakdown {
                direct: Liters::new(a.direct_l),
                indirect: Liters::new(a.indirect_per_pue_l * y.spec.pue.value()),
            })
            .collect(),
        wi_mean: years.iter().map(|y| y.water_intensity().mean()).collect(),
        wue_mean: aggregates.iter().map(|a| a.mean_wue).collect(),
        ewf_mean: aggregates.iter().map(|a| a.mean_ewf).collect(),
        wue_summary: years.iter().map(|y| y.wue.summary()).collect(),
        ewf_summary: years.iter().map(|y| y.ewf.summary()).collect(),
    }
}

// --------------------------------------------------------- streaming topN

/// One entry of a [`TopN`] result: the ranking key, the caller's item
/// index (the deterministic tie-breaker), and the item.
#[derive(Debug, Clone)]
pub struct TopEntry<T> {
    /// The ranking key (ascending = better).
    pub key: f64,
    /// The caller-assigned item index; smaller wins key ties.
    pub index: u64,
    /// The carried item.
    pub item: T,
}

impl<T> TopEntry<T> {
    fn cmp_rank(&self, other: &Self) -> CmpOrdering {
        // IEEE total order on the key (NaN sorts after +inf — still a
        // total, deterministic order), then the index tie-break.
        self.key
            .total_cmp(&other.key)
            .then(self.index.cmp(&other.index))
    }
}

impl<T> PartialEq for TopEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_rank(other) == CmpOrdering::Equal
    }
}
impl<T> Eq for TopEntry<T> {}
impl<T> PartialOrd for TopEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for TopEntry<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.cmp_rank(other)
    }
}

/// A streaming top-N aggregator: a bounded binary max-heap keeping the N
/// smallest `(key, index)` entries seen so far, so a 10⁵–10⁶-cell sweep
/// ranks candidates without materializing every row.
///
/// **Determinism.** The kept set is "the N smallest under the total
/// order (key, then index)" — a property of the *set* of pushed entries,
/// independent of push order, chunking, or merge shape. Ties on the key
/// resolve by the caller-assigned index (expansion order), so results
/// are byte-identical at every thread count and chunk size
/// (`tests/batch.rs`).
#[derive(Debug, Clone)]
pub struct TopN<T> {
    capacity: usize,
    heap: BinaryHeap<TopEntry<T>>,
}

impl<T> TopN<T> {
    /// An empty aggregator keeping the best `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "top-N needs room for at least one entry");
        TopN {
            capacity,
            heap: BinaryHeap::with_capacity(capacity + 1),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently kept (≤ capacity).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers one entry; it is kept iff it ranks among the N best seen.
    pub fn push(&mut self, key: f64, index: u64, item: T) {
        topn_counter().inc();
        let entry = TopEntry { key, index, item };
        if self.heap.len() < self.capacity {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry.cmp_rank(worst) == CmpOrdering::Less {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Merges another aggregator's kept entries into this one (the
    /// index-ordered chunk merge; already-counted entries are not
    /// re-counted in [`stats`]).
    pub fn merge(&mut self, other: TopN<T>) {
        for entry in other.heap.into_vec() {
            let entry: TopEntry<T> = entry;
            if self.heap.len() < self.capacity {
                self.heap.push(entry);
            } else if let Some(worst) = self.heap.peek() {
                if entry.cmp_rank(worst) == CmpOrdering::Less {
                    self.heap.pop();
                    self.heap.push(entry);
                }
            }
        }
    }

    /// The kept entries in rank order (ascending key, index tie-break).
    pub fn into_sorted(self) -> Vec<TopEntry<T>> {
        self.heap.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thirstyflops_catalog::SystemId;

    #[test]
    fn aggregates_match_the_scalar_expressions_bit_for_bit() {
        let ctx = BatchContext::new();
        let mut warm = SystemSpec::reference(SystemId::Polaris);
        warm.nodes = 180;
        let mut scaled = SystemSpec::reference(SystemId::Fugaku);
        scaled.nodes = 300;
        let requests = vec![
            LaneRequest {
                spec: warm.clone(),
                seed: 7,
                wue_scale: None,
                ewf_scale: None,
                carbon_scale: None,
            },
            LaneRequest {
                spec: scaled.clone(),
                seed: 2023,
                wue_scale: Some(0.8),
                ewf_scale: Some(1.3),
                carbon_scale: Some(0.9),
            },
        ];
        let aggs = ctx.aggregate(&requests);
        for (req, agg) in requests.iter().zip(&aggs) {
            let year = SystemYear::simulate_uncached(req.spec.clone(), req.seed);
            let wue = match req.wue_scale {
                Some(k) => year.wue.scale(k),
                None => year.wue.clone(),
            };
            let ewf = match req.ewf_scale {
                Some(k) => year.ewf.scale(k),
                None => year.ewf.clone(),
            };
            let carbon = match req.carbon_scale {
                Some(k) => year.carbon.scale(k),
                None => year.carbon.clone(),
            };
            assert_eq!(agg.energy_kwh, year.energy.total());
            assert_eq!(agg.direct_l, year.energy.dot(&wue));
            assert_eq!(agg.indirect_per_pue_l, year.energy.dot(&ewf));
            assert_eq!(agg.carbon_g, year.energy.dot(&carbon));
            assert_eq!(agg.mean_wue, wue.mean());
            assert_eq!(agg.mean_ewf, ewf.mean());
            assert_eq!(agg.mean_carbon, carbon.mean());
            let monthly = year.energy.mul(&wue).monthly_sum();
            for (m, &month) in thirstyflops_timeseries::Month::ALL.iter().enumerate() {
                assert_eq!(agg.monthly_direct_l[m], monthly.get(month), "month {m}");
            }
        }
    }

    #[test]
    fn topn_keeps_the_n_best_with_index_tie_break() {
        let mut top = TopN::new(3);
        for (i, key) in [5.0, 1.0, 3.0, 1.0, 4.0, 2.0].iter().enumerate() {
            top.push(*key, i as u64, i);
        }
        let kept = top.into_sorted();
        let ranked: Vec<(f64, u64)> = kept.iter().map(|e| (e.key, e.index)).collect();
        // Two 1.0 keys tie — the earlier index wins the first slot.
        assert_eq!(ranked, vec![(1.0, 1), (1.0, 3), (2.0, 5)]);
    }

    #[test]
    fn topn_merge_order_does_not_matter() {
        let keys = [9.0, 2.0, 7.0, 2.0, 5.0, 1.0, 8.0, 3.0];
        let full = {
            let mut t = TopN::new(4);
            for (i, &k) in keys.iter().enumerate() {
                t.push(k, i as u64, ());
            }
            t.into_sorted()
        };
        let merged = {
            let mut left = TopN::new(4);
            let mut right = TopN::new(4);
            for (i, &k) in keys.iter().enumerate() {
                if i % 2 == 0 {
                    left.push(k, i as u64, ());
                } else {
                    right.push(k, i as u64, ());
                }
            }
            right.merge(left);
            right.into_sorted()
        };
        let a: Vec<(u64, f64)> = full.iter().map(|e| (e.index, e.key)).collect();
        let b: Vec<(u64, f64)> = merged.iter().map(|e| (e.index, e.key)).collect();
        assert_eq!(a, b);
    }
}
