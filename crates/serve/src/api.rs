//! Response shaping shared by the CLI's `--json` output and the HTTP
//! handlers.
//!
//! The byte-identity guarantee between `thirstyflops <cmd> --json` and
//! the corresponding `GET /v1/...` response rests on this module: both
//! front ends build the same typed payload and render it through the one
//! canonical serializer, [`to_json`]. Nothing here touches the network —
//! it is pure "model results → serde types".

use rayon::prelude::*;
use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::uncertainty::{mix_ewf_interval, operational_interval};
use thirstyflops_core::{AnnualReport, FootprintModel, Interval, SystemYear};
use thirstyflops_grid::{GridRegion, Scenario};
use thirstyflops_obs::trace::propagate;
use thirstyflops_units::{GramsCo2PerKwh, LitersPerKilowattHour};

/// The canonical JSON rendering: 2-space pretty with a trailing newline
/// (exactly what the CLI has always printed for `experiments --json`).
pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    let mut text =
        serde_json::to_string_pretty(value).expect("workspace serde shim cannot fail to render");
    text.push('\n');
    text
}

/// One row of `GET /v1/systems` / `thirstyflops systems --json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemEntry {
    /// Canonical slug (valid in URLs and as a CLI argument).
    pub system: String,
    /// Display name.
    pub name: String,
    /// Facility / operator.
    pub operator: String,
    /// City, country.
    pub location: String,
    /// Year of first operation.
    pub start_year: u32,
    /// Compute node count.
    pub nodes: u32,
    /// Facility PUE.
    pub pue: f64,
    /// Electricity grid region (display name).
    pub region: String,
    /// Whether the system has GPU accelerators.
    pub has_gpus: bool,
}

/// `GET /v1/systems` payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SystemsPayload {
    /// All cataloged systems, catalog order.
    pub systems: Vec<SystemEntry>,
}

/// Builds the catalog listing.
pub fn systems_payload() -> SystemsPayload {
    SystemsPayload {
        systems: SystemId::ALL
            .iter()
            .map(|&id| {
                let s = SystemSpec::reference(id);
                SystemEntry {
                    system: id.slug().to_string(),
                    name: id.name().to_string(),
                    operator: s.operator.clone(),
                    location: s.location.clone(),
                    start_year: s.start_year,
                    nodes: s.nodes,
                    pue: s.pue.value(),
                    region: s.region.name().to_string(),
                    has_gpus: s.has_gpus(),
                }
            })
            .collect(),
    }
}

/// `GET /v1/footprint/{system}` payload: the full annual report plus the
/// catalog context the text report prints.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FootprintPayload {
    /// Canonical slug.
    pub system: String,
    /// Display name.
    pub name: String,
    /// Facility / operator.
    pub operator: String,
    /// City, country.
    pub location: String,
    /// Telemetry seed the year was simulated with.
    pub seed: u64,
    /// Everything the paper reports per system-year.
    pub report: AnnualReport,
}

/// Builds one system's annual footprint payload.
pub fn footprint_payload(id: SystemId, seed: u64) -> FootprintPayload {
    let spec = SystemSpec::reference(id);
    FootprintPayload {
        system: id.slug().to_string(),
        name: id.name().to_string(),
        operator: spec.operator.clone(),
        location: spec.location.clone(),
        seed,
        report: FootprintModel::reference(id).annual_report(seed),
    }
}

/// `GET /v1/rank` row.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankEntry {
    /// 1-based position under the requested metric.
    pub rank: u32,
    /// Canonical slug.
    pub system: String,
    /// Display name.
    pub name: String,
    /// Annual operational water, megaliters.
    pub operational_ml: f64,
    /// Annual IT energy, GWh.
    pub energy_gwh: f64,
    /// Annual mean water intensity, L/kWh.
    pub mean_wi: f64,
    /// Scarcity-adjusted water intensity, L/kWh.
    pub adjusted_wi: f64,
}

/// `GET /v1/rank` payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankPayload {
    /// Telemetry seed.
    pub seed: u64,
    /// True when ranked by scarcity-adjusted intensity instead of
    /// operational volume.
    pub adjusted: bool,
    /// Worst-first ranking, mirroring `thirstyflops rank`.
    pub entries: Vec<RankEntry>,
}

/// Builds the Water500-style ranking (worst first, like the CLI). The
/// six systems' years are independent, so they simulate in parallel;
/// the reports merge in `SystemId::ALL` order before the sort.
pub fn rank_payload(adjusted: bool, seed: u64) -> RankPayload {
    let mut reports: Vec<AnnualReport> = SystemId::ALL
        .par_iter()
        .map(propagate(|&id: &SystemId| {
            FootprintModel::reference(id).annual_report(seed)
        }))
        .collect();
    if adjusted {
        reports.sort_by(|x, y| {
            y.adjusted_wi
                .value()
                .partial_cmp(&x.adjusted_wi.value())
                .expect("intensities are finite")
        });
    } else {
        reports.sort_by(|x, y| {
            y.operational_total()
                .value()
                .partial_cmp(&x.operational_total().value())
                .expect("volumes are finite")
        });
    }
    RankPayload {
        seed,
        adjusted,
        entries: reports
            .iter()
            .enumerate()
            .map(|(i, r)| RankEntry {
                rank: (i + 1) as u32,
                system: r.id.slug().to_string(),
                name: r.id.name().to_string(),
                operational_ml: r.operational_total().value() / 1e6,
                energy_gwh: r.energy.value() / 1e6,
                mean_wi: r.mean_wi.value(),
                adjusted_wi: r.adjusted_wi.value(),
            })
            .collect(),
    }
}

/// `GET /v1/compare` / `thirstyflops compare --json` payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComparePayload {
    /// Telemetry seed.
    pub seed: u64,
    /// First system's footprint.
    pub a: FootprintPayload,
    /// Second system's footprint.
    pub b: FootprintPayload,
    /// First system's operational uncertainty band, liters.
    pub operational_band_a: Interval,
    /// Second system's operational uncertainty band, liters.
    pub operational_band_b: Interval,
    /// True when the bands overlap — the ranking is not robust to
    /// EWF/WUE uncertainty.
    pub bands_overlap: bool,
}

/// The EWF/WUE uncertainty band on a system's annual operational water
/// (liters), as printed by `thirstyflops compare`.
pub fn operational_band(id: SystemId, report: &AnnualReport) -> Interval {
    let spec = SystemSpec::reference(id);
    let mix = GridRegion::preset(spec.region).annual_mix();
    let ewf = mix_ewf_interval(&mix);
    let wue =
        Interval::with_tolerance(report.mean_wue.value(), 0.15).expect("static tolerance is valid");
    let energy = Interval::exact(report.energy.value());
    operational_interval(energy, wue, spec.pue, ewf)
}

/// Builds the side-by-side comparison payload.
pub fn compare_payload(a: SystemId, b: SystemId, seed: u64) -> ComparePayload {
    let pa = footprint_payload(a, seed);
    let pb = footprint_payload(b, seed);
    let band_a = operational_band(a, &pa.report);
    let band_b = operational_band(b, &pb.report);
    ComparePayload {
        seed,
        operational_band_a: band_a,
        operational_band_b: band_b,
        bands_overlap: band_a.overlaps(&band_b),
        a: pa,
        b: pb,
    }
}

/// The normalization point of the what-if table: the current mix.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioBaseline {
    /// Mean grid carbon intensity, gCO₂/kWh.
    pub carbon_g_per_kwh: f64,
    /// Mean energy water factor, L/kWh.
    pub ewf_l_per_kwh: f64,
    /// Mean water usage effectiveness, L/kWh.
    pub wue_l_per_kwh: f64,
    /// Facility PUE.
    pub pue: f64,
    /// Mean water intensity `WUE + PUE·EWF`, L/kWh.
    pub wi_l_per_kwh: f64,
}

/// One what-if row of `GET /v1/scenario/{system}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioRow {
    /// Fig. 14 legend label.
    pub scenario: String,
    /// Carbon-intensity reduction vs the current mix, percent (positive
    /// = cleaner).
    pub carbon_delta_percent: f64,
    /// Water-intensity reduction vs the current mix, percent (positive
    /// = thriftier).
    pub water_delta_percent: f64,
}

/// `GET /v1/scenario/{system}` payload.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioPayload {
    /// Canonical slug.
    pub system: String,
    /// Display name.
    pub name: String,
    /// Telemetry seed.
    pub seed: u64,
    /// The current-mix normalization point.
    pub baseline: ScenarioBaseline,
    /// The four replacement scenarios, Fig. 14 legend order.
    pub scenarios: Vec<ScenarioRow>,
}

/// Builds the Fig. 14 energy-source what-ifs for one system.
pub fn scenario_payload(id: SystemId, seed: u64) -> ScenarioPayload {
    let year = SystemYear::simulate(id, seed);
    let ci_mix = GramsCo2PerKwh::new(year.carbon.mean());
    let ewf_mix = LitersPerKilowattHour::new(year.ewf.mean());
    let wue = year.wue.mean();
    let pue = year.spec.pue.value();
    let wi_mix = wue + pue * ewf_mix.value();
    let scenarios = [
        Scenario::AllCoal,
        Scenario::AllNuclear,
        Scenario::OtherRenewable,
        Scenario::WaterIntensiveRenewable,
    ]
    .iter()
    .map(|&s| {
        let carbon_delta =
            100.0 * (ci_mix.value() - s.carbon_intensity(ci_mix).value()) / ci_mix.value();
        let wi_s = wue + pue * s.ewf(ewf_mix).value();
        ScenarioRow {
            scenario: s.label().to_string(),
            carbon_delta_percent: carbon_delta,
            water_delta_percent: 100.0 * (wi_mix - wi_s) / wi_mix,
        }
    })
    .collect();
    ScenarioPayload {
        system: id.slug().to_string(),
        name: id.name().to_string(),
        seed,
        baseline: ScenarioBaseline {
            carbon_g_per_kwh: ci_mix.value(),
            ewf_l_per_kwh: ewf_mix.value(),
            wue_l_per_kwh: wue,
            pue,
            wi_l_per_kwh: wi_mix,
        },
        scenarios,
    }
}

/// The scenario engine's run payload (`POST /v1/scenarios/run` /
/// `thirstyflops scenario run <file> --json`): the engine's outcome,
/// verbatim — both front ends render the same evaluation through
/// [`to_json`].
pub fn scenario_run_payload(
    spec: &thirstyflops_scenario::ScenarioSpec,
) -> Result<thirstyflops_scenario::ScenarioOutcome, thirstyflops_scenario::ScenarioError> {
    thirstyflops_scenario::evaluate(spec)
}

/// The scenario engine's sweep payload (`POST /v1/scenarios/sweep` /
/// `thirstyflops scenario sweep <file> --json`).
pub fn scenario_sweep_payload(
    sweep: &thirstyflops_scenario::SweepSpec,
) -> Result<thirstyflops_scenario::SweepReport, thirstyflops_scenario::ScenarioError> {
    thirstyflops_scenario::evaluate_sweep(sweep)
}

/// `GET /v1/cache/stats` payload — the serving layer's cache snapshot:
/// the body cache in front, the process-wide simulation caches
/// (`core::simcache`) and the batch kernel behind it. Warm-path
/// behavior — which layer absorbed a request — is fully observable over
/// HTTP; per-endpoint request counts live in `/v1/metrics`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStatsPayload {
    /// Rendered-body cache counters (per server process).
    pub body: crate::cache::CacheStats,
    /// Simulation memo-cache counters (grid years, WUE series, whole
    /// system years; process-wide).
    pub simulation: thirstyflops_core::simcache::SimCacheStats,
    /// Batched K-lane kernel counters (lanes, kernel passes, streaming
    /// top-N pushes; process-wide).
    pub batch: thirstyflops_core::batch::BatchStats,
}

/// Builds the cache payload from a body-cache snapshot and the
/// process-wide counters.
pub fn cache_stats_payload(body: crate::cache::CacheStats) -> CacheStatsPayload {
    CacheStatsPayload {
        body,
        simulation: thirstyflops_core::simcache::stats(),
        batch: thirstyflops_core::batch::stats(),
    }
}

/// `GET /v1/experiments` payload: the known artifact ids, paper order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentIndexPayload {
    /// Artifact ids accepted by `/v1/experiments/{id}` and the
    /// `experiments` subcommand.
    pub ids: Vec<String>,
}

/// Builds the artifact-id listing (regenerates nothing).
pub fn experiment_index_payload() -> ExperimentIndexPayload {
    ExperimentIndexPayload {
        ids: thirstyflops_experiments::ids()
            .iter()
            .map(|id| id.to_string())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_is_pretty_with_trailing_newline() {
        let text = to_json(&experiment_index_payload());
        assert!(text.starts_with("{\n  \"ids\": [\n"));
        assert!(text.ends_with("\n"));
        assert!(!text.ends_with("\n\n"));
    }

    #[test]
    fn systems_payload_lists_all_in_catalog_order() {
        let payload = systems_payload();
        assert_eq!(payload.systems.len(), SystemId::ALL.len());
        assert_eq!(payload.systems[0].system, "marconi");
        assert_eq!(payload.systems[5].name, "El Capitan");
        assert!(
            payload.systems.iter().any(|s| !s.has_gpus),
            "Fugaku is CPU-only"
        );
    }

    #[test]
    fn footprint_payload_matches_direct_model_run() {
        let payload = footprint_payload(SystemId::Polaris, 7);
        let direct = FootprintModel::reference(SystemId::Polaris).annual_report(7);
        assert_eq!(payload.report, direct);
        assert_eq!(payload.system, "polaris");
        assert_eq!(payload.seed, 7);
        assert!(payload.location.contains("Lemont"));
    }

    #[test]
    fn rank_orders_worst_first_under_both_metrics() {
        let by_volume = rank_payload(false, 7);
        assert_eq!(by_volume.entries.len(), SystemId::ALL.len());
        assert!(by_volume
            .entries
            .windows(2)
            .all(|w| w[0].operational_ml >= w[1].operational_ml));
        assert_eq!(by_volume.entries[0].rank, 1);
        let by_adjusted = rank_payload(true, 7);
        assert!(by_adjusted
            .entries
            .windows(2)
            .all(|w| w[0].adjusted_wi >= w[1].adjusted_wi));
    }

    #[test]
    fn compare_payload_band_verdict_is_consistent() {
        let c = compare_payload(SystemId::Polaris, SystemId::Frontier, 2023);
        assert_eq!(
            c.bands_overlap,
            c.operational_band_a.overlaps(&c.operational_band_b)
        );
        assert!(c.operational_band_a.lo <= c.operational_band_a.hi);
        assert_eq!(c.a.system, "polaris");
        assert_eq!(c.b.system, "frontier");
    }

    #[test]
    fn scenario_payload_mirrors_fig14_shape() {
        let p = scenario_payload(SystemId::Fugaku, 2023);
        assert_eq!(p.scenarios.len(), 4);
        assert_eq!(p.scenarios[0].scenario, "100% Coal Usage");
        let wi = p.baseline.wue_l_per_kwh + p.baseline.pue * p.baseline.ewf_l_per_kwh;
        assert!((p.baseline.wi_l_per_kwh - wi).abs() < 1e-12);
        // Coal is dirtier than the current mix (negative carbon saving).
        assert!(p.scenarios[0].carbon_delta_percent < 0.0);
    }

    #[test]
    fn experiment_index_matches_the_regenerator_table() {
        let expected: Vec<String> = thirstyflops_experiments::ids()
            .iter()
            .map(|id| id.to_string())
            .collect();
        assert_eq!(experiment_index_payload().ids, expected);
    }

    #[test]
    fn payloads_render_deterministically() {
        let a = to_json(&footprint_payload(SystemId::Marconi, 7));
        let b = to_json(&footprint_payload(SystemId::Marconi, 7));
        assert_eq!(a, b);
    }
}
