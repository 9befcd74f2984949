//! Cartesian sweeps: an `"axes"` block expands one spec into the cross
//! product of its axis values, evaluated through the batched K-lane
//! kernel (`core::batch`) in one rayon fan-out.
//!
//! A sweep file is a scenario spec plus `"axes": {"<override path>":
//! [v1, v2, ...], ...}`. Each combination means a full [`ScenarioSpec`]
//! — the axis value is written into the (canonical) overrides tree at
//! its path, and the result goes through the same strict validation as
//! a hand-written spec. Override sections never validate against each
//! other, so evaluation compiles each section's sub-combinations once
//! (`SweepPlan`) instead of rebuilding a spec per cell. Expansion
//! order is deterministic: axes iterate in file order, the first axis
//! slowest, so row order never depends on thread count.
//!
//! Plain sweeps keep every row and are capped at [`MAX_SCENARIOS`]
//! cells. A sweep with `"top_n"` streams instead: rows flow through a
//! bounded [top-N aggregator](thirstyflops_core::batch::TopN) ranked on
//! `"rank_by"` (ascending — smaller is better), which lifts the ceiling
//! to [`MAX_SCENARIOS_TOP_N`] without ever materializing the full row
//! set.

use serde::Serialize as _;
use serde::Value;

use crate::engine::{ScenarioDeltas, ScenarioMetrics};
use crate::spec::{fingerprint_of, parse_overrides, Overrides, ScenarioError, ScenarioSpec};

/// Override paths an axis may set (the settable leaves of the override
/// schema — anything else is a hard error).
pub const AXIS_PATHS: [&str; 15] = [
    "climate.preset",
    "climate.wue_scale",
    "grid.region",
    "grid.mix",
    "grid.mix_delta",
    "pue",
    "nodes",
    "wsi.site",
    "wsi.field",
    "reclaimed.fraction",
    "reclaimed.wsi",
    "reclaimed.usd_per_kl",
    "water_price.base_usd_per_kl",
    "water_price.monthly_multiplier",
    "fleet_upgrade.lifetime_years",
];

/// The expansion ceiling for plain (row-materializing) sweeps: at most
/// this many scenarios (guards against accidental combinatorial bombs).
pub const MAX_SCENARIOS: usize = 4096;

/// The expansion ceiling for streaming `top_n` sweeps — rows flow
/// through a bounded top-N heap instead of a materialized vector, so
/// the cap is memory-safe at six orders of magnitude.
pub const MAX_SCENARIOS_TOP_N: usize = 1_048_576;

/// The metrics a `rank_by` field may name. Ranking is ascending —
/// smaller is better — matching the siting question every metric here
/// answers (less water, less carbon, lower bill, less energy).
pub const RANK_METRICS: [&str; 7] = [
    "operational_water_l",
    "scarcity_adjusted_water_l",
    "direct_water_l",
    "indirect_water_l",
    "carbon_kg",
    "water_cost_usd",
    "energy_kwh",
];

/// The rank metric used when `top_n` is given without `rank_by`.
pub const DEFAULT_RANK_METRIC: &str = "operational_water_l";

/// Reads the named rank metric off evaluated scenario metrics.
///
/// # Panics
/// Panics on a metric outside [`RANK_METRICS`] — callers validate the
/// name at parse time ([`SweepSpec::from_json`]) and again in
/// [`evaluate_sweep`] for code-built sweeps.
pub(crate) fn rank_key(m: &ScenarioMetrics, metric: &str) -> f64 {
    match metric {
        "operational_water_l" => m.operational_water_l,
        "scarcity_adjusted_water_l" => m.scarcity_adjusted_water_l,
        "direct_water_l" => m.direct_water_l,
        "indirect_water_l" => m.indirect_water_l,
        "carbon_kg" => m.carbon_kg,
        "water_cost_usd" => m.water_cost_usd,
        "energy_kwh" => m.energy_kwh,
        other => unreachable!("rank metric {other:?} is rejected before evaluation"),
    }
}

/// One sweep axis: an override path and the values it cycles through.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Axis {
    /// Dotted override path, e.g. `"climate.preset"`.
    pub path: String,
    /// The values, tried in file order.
    pub values: Vec<Value>,
}

/// A sweep specification: common spec fields plus the axes.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SweepSpec {
    /// Sweep name (rows are named `name[axis=value,...]`).
    pub name: String,
    /// Optional free-text description.
    pub description: Option<String>,
    /// Canonical slug of the base system.
    pub base: String,
    /// Telemetry seed.
    pub seed: u64,
    /// Overrides common to every combination (axes write on top).
    pub overrides: Overrides,
    /// The axes, file order.
    pub axes: Vec<Axis>,
    /// Streaming mode: keep only the best N rows (by `rank_by`) and
    /// raise the expansion ceiling to [`MAX_SCENARIOS_TOP_N`].
    pub top_n: Option<u64>,
    /// The ranking metric for `top_n` (one of [`RANK_METRICS`];
    /// ascending, defaults to [`DEFAULT_RANK_METRIC`]).
    pub rank_by: Option<String>,
}

/// One row of a sweep report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepRow {
    /// Expanded scenario name (`name[axis=value,...]`).
    pub name: String,
    /// The evaluated scenario metrics.
    pub scenario: ScenarioMetrics,
    /// Scenario minus the sweep's shared baseline.
    pub deltas: ScenarioDeltas,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepReport {
    /// Sweep name.
    pub name: String,
    /// Canonical base-system slug.
    pub base: String,
    /// Telemetry seed.
    pub seed: u64,
    /// Fingerprint of the canonical sweep spec.
    pub fingerprint: String,
    /// Number of expanded scenarios (the full cross product — under
    /// `top_n` this exceeds `rows.len()`).
    pub scenario_count: u64,
    /// The `top_n` bound when the sweep streamed, else `null`.
    pub top_n: Option<u64>,
    /// The effective ranking metric when the sweep streamed, else
    /// `null`.
    pub rank_by: Option<String>,
    /// The shared baseline (base system, no overrides).
    pub baseline: ScenarioMetrics,
    /// One row per combination in expansion order — or, under `top_n`,
    /// the best N rows in rank order (ascending metric, expansion-index
    /// tie-break).
    pub rows: Vec<SweepRow>,
}

impl SweepSpec {
    /// Parses and validates a sweep spec from JSON text. As strict as
    /// [`ScenarioSpec::from_json`]; additionally requires `"axes"` and
    /// validates every combination, at any size, naming the first
    /// invalid one in expansion order.
    pub fn from_json(text: &str) -> Result<SweepSpec, ScenarioError> {
        SweepSpec::from_json_with_top(text, None)
    }

    /// [`SweepSpec::from_json`] with a caller-supplied `top_n` override
    /// (the CLI's `--top N`), applied *before* the expansion-ceiling
    /// check so `--top` unlocks the streaming ceiling exactly like an
    /// in-file `"top_n"`.
    pub fn from_json_with_top(
        text: &str,
        top_override: Option<u64>,
    ) -> Result<SweepSpec, ScenarioError> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| ScenarioError::Json(e.to_string()))?;
        let pairs = value
            .as_object()
            .ok_or_else(|| ScenarioError::Invalid("sweep spec must be a JSON object".into()))?;
        // Reuse the run-spec parser for the shared fields by stripping
        // the sweep-only keys (it rejects them with a redirect message
        // otherwise).
        let sweep_keys = ["axes", "top_n", "rank_by"];
        let without_axes = Value::Object(
            pairs
                .iter()
                .filter(|(k, _)| !sweep_keys.contains(&k.as_str()))
                .cloned()
                .collect(),
        );
        let common = ScenarioSpec::from_value(&without_axes)?;
        let mut top_n = match pairs.iter().find(|(k, _)| k == "top_n").map(|(_, v)| v) {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ScenarioError::Invalid("\"top_n\" must be a non-negative integer".into())
            })?),
        };
        if let Some(n) = top_override {
            top_n = Some(n);
        }
        if top_n == Some(0) {
            return Err(ScenarioError::Invalid(
                "\"top_n\" must be at least 1".into(),
            ));
        }
        let rank_by = match pairs.iter().find(|(k, _)| k == "rank_by").map(|(_, v)| v) {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => {
                if !RANK_METRICS.contains(&s.as_str()) {
                    return Err(ScenarioError::Invalid(format!(
                        "unknown rank metric {s:?} (one of: {RANK_METRICS:?})"
                    )));
                }
                Some(s.clone())
            }
            Some(_) => {
                return Err(ScenarioError::Invalid(
                    "\"rank_by\" must be a string".into(),
                ))
            }
        };
        if rank_by.is_some() && top_n.is_none() {
            return Err(ScenarioError::Invalid(
                "\"rank_by\" needs \"top_n\" — without a bound there is nothing to rank".into(),
            ));
        }
        let axes_value = pairs
            .iter()
            .find(|(k, _)| k == "axes")
            .map(|(_, v)| v)
            .ok_or_else(|| {
                ScenarioError::Invalid(
                    "sweep spec is missing \"axes\" — a plain scenario runs with \
                     `thirstyflops scenario run`"
                        .into(),
                )
            })?;
        let axes_pairs = axes_value
            .as_object()
            .ok_or_else(|| ScenarioError::Invalid("\"axes\" must be an object".into()))?;
        if axes_pairs.is_empty() {
            return Err(ScenarioError::Invalid("\"axes\" must not be empty".into()));
        }
        let mut axes = Vec::with_capacity(axes_pairs.len());
        let mut expansion: usize = 1;
        for (path, values) in axes_pairs {
            if !AXIS_PATHS.contains(&path.as_str()) {
                return Err(ScenarioError::Invalid(format!(
                    "unknown axis path {path:?} (settable: {AXIS_PATHS:?})"
                )));
            }
            if axes.iter().any(|a: &Axis| &a.path == path) {
                return Err(ScenarioError::Invalid(format!(
                    "duplicate axis path {path:?}"
                )));
            }
            let values = values
                .as_array()
                .ok_or_else(|| {
                    ScenarioError::Invalid(format!("axis {path:?} must map to an array"))
                })?
                .to_vec();
            if values.is_empty() {
                return Err(ScenarioError::Invalid(format!(
                    "axis {path:?} must have at least one value"
                )));
            }
            expansion = expansion.saturating_mul(values.len());
            axes.push(Axis {
                path: path.clone(),
                values,
            });
        }
        if expansion > ceiling_for(top_n) {
            return Err(ceiling_error(expansion, top_n));
        }
        let sweep = SweepSpec {
            name: common.name,
            description: common.description,
            base: common.base,
            seed: common.seed,
            overrides: common.overrides,
            axes,
            top_n,
            rank_by,
        };
        // Every combination must be a valid scenario spec.
        sweep.validate_combinations()?;
        Ok(sweep)
    }

    /// Total number of combinations (the full cross product).
    pub fn combination_count(&self) -> usize {
        self.axes
            .iter()
            .map(|a| a.values.len())
            .fold(1, usize::saturating_mul)
    }

    /// The applicable expansion ceiling for this sweep's mode.
    pub fn ceiling(&self) -> usize {
        ceiling_for(self.top_n)
    }

    /// The canonical compact JSON rendering (the HTTP body-cache key;
    /// axes are rendered as `{path, values}` records in file order).
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("sweep structs always serialize")
    }

    /// Fingerprint of the canonical rendering (16 hex digits).
    pub fn fingerprint(&self) -> String {
        fingerprint_of(&self.canonical_json())
    }

    /// Expands the cartesian product into one validated
    /// [`ScenarioSpec`] per combination, first axis slowest. Only
    /// sensible below [`MAX_SCENARIOS`] — streaming sweeps address
    /// combinations individually via [`SweepSpec::combination`].
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, ScenarioError> {
        (0..self.combination_count())
            .map(|index| self.combination(index))
            .collect()
    }

    /// Builds the validated [`ScenarioSpec`] for one combination index
    /// without expanding anything else. The index ↔ combination map is
    /// pure mixed-radix arithmetic (first axis slowest, matching
    /// [`SweepSpec::expand`] order). Evaluation itself never rebuilds a
    /// valid cell this way — it picks compiled sections — but the
    /// per-cell oracle in `tests/batch.rs` does, and an invalid cell's
    /// error is this function's.
    ///
    /// # Panics
    /// Panics if `index >= combination_count()`.
    pub fn combination(&self, index: usize) -> Result<ScenarioSpec, ScenarioError> {
        assert!(
            index < self.combination_count(),
            "combination index {index} out of range"
        );
        let mut indices = vec![0usize; self.axes.len()];
        let mut rem = index;
        for pos in (0..self.axes.len()).rev() {
            let len = self.axes[pos].values.len();
            indices[pos] = rem % len;
            rem /= len;
        }
        self.spec_for_indices(&indices)
    }

    /// Validates every combination without building one spec per cell:
    /// each override section's sub-combinations are parsed and
    /// validated once (`SweepPlan`), and the first combination in
    /// expansion order that picks an invalid one reports exactly the
    /// error [`SweepSpec::combination`] gives it, so a jointly invalid
    /// combination is refused at parse time whatever the sweep's size.
    fn validate_combinations(&self) -> Result<(), ScenarioError> {
        let (plan, sections) = SweepPlan::compile(self);
        match plan.first_invalid(&sections, self.combination_count()) {
            Some(index) => Err(self
                .combination(index)
                .expect_err("a combination picking an invalid section fails")),
            None => Ok(()),
        }
    }

    /// One sub-combination of one override section: the common
    /// section with that section's axis values written in, parsed and
    /// validated on its own. `None` where `set_path`, the parser or
    /// `validate` rejects it.
    fn compile_section(
        &self,
        common: &Value,
        section: usize,
        sub: usize,
        axes: &[PlanAxis],
    ) -> Option<Overrides> {
        let key = SECTIONS[section];
        let current = common
            .as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
            .map_or(Value::Null, |(_, v)| v.clone());
        let mut tree = Value::Object(vec![(key.to_string(), current)]);
        for (axis, plan) in self.axes.iter().zip(axes) {
            if plan.section == Some(section) {
                let value = axis.values[sub / plan.stride % plan.len].clone();
                set_path(&mut tree, &axis.path, value).ok()?;
            }
        }
        let spec = ScenarioSpec {
            name: self.name.clone(),
            description: None,
            base: self.base.clone(),
            seed: self.seed,
            overrides: parse_overrides(&tree).ok()?,
        };
        spec.validate().ok()?;
        Some(spec.overrides)
    }

    fn spec_for_indices(&self, indices: &[usize]) -> Result<ScenarioSpec, ScenarioError> {
        let mut overrides = self.overrides.to_value();
        let mut label_parts = Vec::with_capacity(self.axes.len());
        for (axis, &i) in self.axes.iter().zip(indices) {
            let value = &axis.values[i];
            set_path(&mut overrides, &axis.path, value.clone())?;
            label_parts.push(format!("{}={}", axis.path, label_of(value)));
        }
        let mut spec_pairs = vec![
            (
                "name".to_string(),
                Value::Str(format!("{}[{}]", self.name, label_parts.join(","))),
            ),
            ("base".to_string(), Value::Str(self.base.clone())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("overrides".to_string(), overrides),
        ];
        if let Some(d) = &self.description {
            spec_pairs.insert(1, ("description".to_string(), Value::Str(d.clone())));
        }
        ScenarioSpec::from_value(&Value::Object(spec_pairs)).map_err(|e| {
            ScenarioError::Invalid(format!(
                "combination [{}] is invalid: {}",
                label_parts.join(","),
                e.message()
            ))
        })
    }
}

fn ceiling_for(top_n: Option<u64>) -> usize {
    if top_n.is_some() {
        MAX_SCENARIOS_TOP_N
    } else {
        MAX_SCENARIOS
    }
}

fn ceiling_error(expansion: usize, top_n: Option<u64>) -> ScenarioError {
    if top_n.is_some() {
        ScenarioError::Invalid(format!(
            "sweep expands to {expansion} scenarios — the streaming top-N ceiling is \
             {MAX_SCENARIOS_TOP_N}"
        ))
    } else {
        ScenarioError::Invalid(format!(
            "sweep expands to {expansion} scenarios — the ceiling is {MAX_SCENARIOS} \
             (set \"top_n\" to stream the best rows of up to {MAX_SCENARIOS_TOP_N} cells)"
        ))
    }
}

/// Compact axis-value label for expanded scenario names (strings bare,
/// everything else as compact JSON).
fn label_of(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).expect("axis values re-render"),
    }
}

/// Writes `value` at a dotted `path` inside an overrides tree, creating
/// (or replacing `null`) intermediate objects along the way.
fn set_path(tree: &mut Value, path: &str, value: Value) -> Result<(), ScenarioError> {
    let mut current = tree;
    let segments: Vec<&str> = path.split('.').collect();
    for (depth, segment) in segments.iter().enumerate() {
        let last = depth + 1 == segments.len();
        if matches!(current, Value::Null) {
            *current = Value::Object(Vec::new());
        }
        let Value::Object(pairs) = current else {
            return Err(ScenarioError::Invalid(format!(
                "axis path {path:?} crosses a non-object at {segment:?}"
            )));
        };
        let idx = match pairs.iter().position(|(k, _)| k == segment) {
            Some(i) => i,
            None => {
                pairs.push((
                    segment.to_string(),
                    if last {
                        Value::Null
                    } else {
                        Value::Object(Vec::new())
                    },
                ));
                pairs.len() - 1
            }
        };
        if last {
            pairs[idx].1 = value;
            return Ok(());
        }
        current = &mut pairs[idx].1;
    }
    unreachable!("paths have at least one segment")
}

/// The override sections, in `parse_overrides` order. An axis belongs
/// to the section its path starts with.
pub(crate) const SECTIONS: [&str; 8] = [
    "climate",
    "grid",
    "pue",
    "nodes",
    "wsi",
    "reclaimed",
    "water_price",
    "fleet_upgrade",
];

/// One section's compiled sub-combinations, indexed by the
/// sub-combination number [`SweepPlan::pick`] derives; `None` marks one
/// that failed to compile.
pub(crate) type Variants<T> = Vec<Option<T>>;

/// How one axis enters the plan's index arithmetic.
#[derive(Debug, Clone, Copy)]
struct PlanAxis {
    /// Number of values.
    len: usize,
    /// Its section in [`SECTIONS`] (`None`: a path outside every
    /// section, which no combination survives).
    section: Option<usize>,
    /// Weight of its value index in the section's sub-combination
    /// number (first axis slowest, as in the full expansion).
    stride: usize,
}

/// A sweep compiled once per evaluation. The axes are grouped by
/// override section, and each distinct sub-combination of one section's
/// axes goes through `set_path`, the strict parser and `validate` once
/// — for the 101,250-cell `sweep_siting_large.json` that is 50 + 45 + 45
/// sub-combinations of its three axes (plus the common value of each
/// untouched section) instead of a rebuild per cell. A combination is
/// then one pick per section, found by mixed-radix arithmetic.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    /// The sweep name; rows are named `name[path=value,...]`.
    name: String,
    /// Per axis, file order.
    axes: Vec<PlanAxis>,
    /// Per axis and value: the `path=value` name label.
    labels: Vec<Vec<String>>,
    /// Per section and sub-combination: its share of the expansion
    /// index. A combination's index is the sum of its picks' shares,
    /// because every axis belongs to one section.
    offsets: Vec<Vec<usize>>,
}

impl SweepPlan {
    /// Compiles `sweep`: the plan, plus per section every
    /// sub-combination of its axes as a typed section (an [`Overrides`]
    /// with only that section set), `None` where it did not validate.
    pub(crate) fn compile(sweep: &SweepSpec) -> (SweepPlan, Vec<Variants<Overrides>>) {
        let mut axes = Vec::with_capacity(sweep.axes.len());
        let mut counts = [1usize; SECTIONS.len()];
        for axis in sweep.axes.iter().rev() {
            let len = axis.values.len();
            let head = axis.path.split('.').next();
            let section = SECTIONS.iter().position(|s| head == Some(*s));
            let stride = section.map_or(0, |s| {
                let stride = counts[s];
                counts[s] *= len;
                stride
            });
            axes.push(PlanAxis {
                len,
                section,
                stride,
            });
        }
        axes.reverse();
        let common = sweep.overrides.to_value();
        let sections = counts
            .iter()
            .enumerate()
            .map(|(section, &count)| {
                (0..count)
                    .map(|sub| sweep.compile_section(&common, section, sub, &axes))
                    .collect()
            })
            .collect();
        let labels = sweep
            .axes
            .iter()
            .map(|axis| {
                axis.values
                    .iter()
                    .map(|v| format!("{}={}", axis.path, label_of(v)))
                    .collect()
            })
            .collect();
        let offsets = counts
            .iter()
            .enumerate()
            .map(|(section, &count)| {
                (0..count)
                    .map(|sub| {
                        let mut offset = 0;
                        let mut weight = 1;
                        for axis in axes.iter().rev() {
                            if axis.section == Some(section) {
                                offset += sub / axis.stride % axis.len * weight;
                            }
                            weight *= axis.len;
                        }
                        offset
                    })
                    .collect()
            })
            .collect();
        let plan = SweepPlan {
            name: sweep.name.clone(),
            axes,
            labels,
            offsets,
        };
        (plan, sections)
    }

    /// Section `section`'s sub-combination `sub`'s share of the
    /// expansion index.
    pub(crate) fn offset(&self, section: usize, sub: usize) -> usize {
        self.offsets[section][sub]
    }

    /// The compiled section each section contributes to combination
    /// `index`, or `None` when one of them failed to compile.
    pub(crate) fn pick<'v, T>(
        &self,
        sections: &'v [Variants<T>],
        index: usize,
    ) -> Option<[&'v T; SECTIONS.len()]> {
        let mut subs = [0; SECTIONS.len()];
        let mut rem = index;
        for axis in self.axes.iter().rev() {
            subs[axis.section?] += rem % axis.len * axis.stride;
            rem /= axis.len;
        }
        let mut picked = [None; SECTIONS.len()];
        for ((slot, variants), sub) in picked.iter_mut().zip(sections).zip(subs) {
            *slot = Some(variants[sub].as_ref()?);
        }
        Some(picked.map(|v| v.expect("every section was picked")))
    }

    /// The first combination, in expansion order, that picks a section
    /// which failed to compile. Every sub-combination meets every other
    /// in the cross product, so when every axis has a section and every
    /// section compiled there is none, and nothing is scanned.
    pub(crate) fn first_invalid<T>(&self, sections: &[Variants<T>], count: usize) -> Option<usize> {
        let valid = self.axes.iter().all(|axis| axis.section.is_some())
            && sections.iter().flatten().all(Option::is_some);
        if valid {
            return None;
        }
        (0..count).find(|&index| self.pick(sections, index).is_none())
    }

    /// Combination `index`'s row name, `name[path=value,...]`.
    pub(crate) fn name(&self, index: usize) -> String {
        let mut parts = vec![""; self.axes.len()];
        let mut rem = index;
        for (pos, axis) in self.axes.iter().enumerate().rev() {
            parts[pos] = &self.labels[pos][rem % axis.len];
            rem /= axis.len;
        }
        format!("{}[{}]", self.name, parts.join(","))
    }
}

/// Evaluates a sweep: lane-major streaming evaluation through the
/// batched K-lane kernel, rows merged back in expansion order —
/// bit-identical at every thread count, window and chunk size
/// (`docs/CONCURRENCY.md`).
///
/// The expansion ceiling is enforced *here as well as* in
/// [`SweepSpec::from_json`]: code-built sweeps (and any future caller
/// that skips the parser) hit the same guard, so no layer can stream an
/// unbounded cross product by accident.
pub fn evaluate_sweep(sweep: &SweepSpec) -> Result<SweepReport, ScenarioError> {
    let expansion = sweep.combination_count();
    if expansion > sweep.ceiling() {
        return Err(ceiling_error(expansion, sweep.top_n));
    }
    if sweep.top_n == Some(0) {
        return Err(ScenarioError::Invalid(
            "\"top_n\" must be at least 1".into(),
        ));
    }
    if let Some(rank) = sweep.rank_by.as_deref() {
        if !RANK_METRICS.contains(&rank) {
            return Err(ScenarioError::Invalid(format!(
                "unknown rank metric {rank:?} (one of: {RANK_METRICS:?})"
            )));
        }
    }
    crate::batch::evaluate_sweep_streaming(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITING: &str = r#"{
        "name": "siting",
        "base": "polaris",
        "axes": {
            "climate.preset": ["bologna", "kobe", "lemont"],
            "pue": [1.1, 1.4]
        }
    }"#;

    #[test]
    fn expansion_is_the_cartesian_product_in_file_order() {
        let sweep = SweepSpec::from_json(SITING).unwrap();
        let specs = sweep.expand().unwrap();
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].name, "siting[climate.preset=bologna,pue=1.1]");
        assert_eq!(specs[1].name, "siting[climate.preset=bologna,pue=1.4]");
        assert_eq!(specs[5].name, "siting[climate.preset=lemont,pue=1.4]");
        // Axis values landed in the overrides.
        assert_eq!(
            specs[0]
                .overrides
                .climate
                .as_ref()
                .unwrap()
                .preset
                .as_deref(),
            Some("bologna")
        );
        assert_eq!(specs[0].overrides.pue, Some(1.1));
    }

    #[test]
    fn axes_compose_with_common_overrides() {
        let sweep = SweepSpec::from_json(
            r#"{"name": "s", "base": "polaris",
                "overrides": {"climate": {"wue_scale": 0.9}},
                "axes": {"climate.preset": ["kobe", "lemont"]}}"#,
        )
        .unwrap();
        let specs = sweep.expand().unwrap();
        for spec in &specs {
            let climate = spec.overrides.climate.as_ref().unwrap();
            assert_eq!(climate.wue_scale, Some(0.9), "common override kept");
            assert!(climate.preset.is_some(), "axis value set");
        }
    }

    #[test]
    fn invalid_axes_are_rejected() {
        for (text, needle) in [
            (
                r#"{"name": "s", "base": "polaris", "axes": {"pue": []}}"#,
                "at least one value",
            ),
            (
                r#"{"name": "s", "base": "polaris", "axes": {"color": ["red"]}}"#,
                "unknown axis path",
            ),
            (
                r#"{"name": "s", "base": "polaris", "axes": {"pue": [0.5]}}"#,
                "pue",
            ),
            (r#"{"name": "s", "base": "polaris"}"#, "axes"),
        ] {
            let err = SweepSpec::from_json(text).unwrap_err();
            assert!(
                err.message().contains(needle),
                "{text}: {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn expansion_ceiling_guards_combinatorial_bombs() {
        let values: Vec<String> = (0..80).map(|i| format!("{}.0", 1 + i)).collect();
        let big = format!(
            r#"{{"name": "s", "base": "polaris",
                "axes": {{"climate.wue_scale": [{v}],
                          "pue": [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0],
                          "reclaimed.fraction": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]}}}}"#,
            v = values.join(", ")
        );
        // 80 × 10 × 7 = 5600 > 4096. (reclaimed.fraction alone is not a
        // full reclaimed override, but the ceiling trips before
        // validation would.)
        let err = SweepSpec::from_json(&big).unwrap_err();
        assert!(err.message().contains("ceiling"), "{err}");
    }

    #[test]
    fn sweep_evaluates_with_shared_baseline() {
        let report = evaluate_sweep(&SweepSpec::from_json(SITING).unwrap()).unwrap();
        assert_eq!(report.scenario_count, 6);
        assert_eq!(report.rows.len(), 6);
        assert_eq!(report.base, "polaris");
        assert!(report.baseline.operational_water_l > 0.0);
        // Rows with lower PUE use less indirect water than their 1.4
        // siblings at the same climate.
        for pair in report.rows.chunks(2) {
            assert!(
                pair[0].scenario.indirect_water_l < pair[1].scenario.indirect_water_l,
                "{} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn sweep_report_is_deterministic() {
        let sweep = SweepSpec::from_json(SITING).unwrap();
        let a = serde_json::to_string(&evaluate_sweep(&sweep).unwrap()).unwrap();
        let b = serde_json::to_string(&evaluate_sweep(&sweep).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn incomplete_axis_combination_fails_validation() {
        // reclaimed.fraction alone misses the required reclaimed.wsi.
        let err = SweepSpec::from_json(
            r#"{"name": "s", "base": "polaris",
                "axes": {"reclaimed.fraction": [0.2]}}"#,
        )
        .unwrap_err();
        assert!(err.message().contains("combination"), "{err}");
    }
}
