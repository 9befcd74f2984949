//! Seeded workload inputs: the `serve_warm` request plan and the
//! `scenario_misses` bodies. Both are pure functions of the benchmark
//! seed, so a claim can be re-run on a held-out seed. `paper_cold` and
//! `sweep_large` take fixed inputs and ignore the seed.

use std::collections::HashSet;

use thirstyflops::loadgen::{self, MixSpec};

/// The recorded template mix `serve_warm` draws its plan from.
pub const WARM_MIX: &str = "examples/loadmix/bench.json";
/// Requests in one `serve_warm` replay.
pub const WARM_REQUESTS: usize = 100_000;
/// Distinct scenario bodies in `scenario_misses`. Above half the
/// requests, so that fewer than half are body-cache hits and the median
/// latency falls inside the post-processing misses instead of on the
/// edge between hits and misses, where it would jump from run to run.
pub const MISS_DISTINCT: usize = 550;
/// Requests in one `scenario_misses` replay (450 bodies twice, the
/// rest once).
pub const MISS_REQUESTS: usize = 1_000;
/// The four paper systems the scenario bodies use as bases.
pub const MISS_BASES: [&str; 4] = ["marconi", "fugaku", "polaris", "frontier"];

/// `requests` template indices drawn by weight from `mix` under `seed`
/// (the loadgen plan generator with the mix's own seed replaced).
pub fn warm_plan(mix: &MixSpec, seed: u64, requests: usize) -> Vec<usize> {
    let mut seeded = mix.clone();
    seeded.seed = seed;
    loadgen::run::build_plan(&seeded, requests)
}

/// One `POST /v1/scenarios/run` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioBody {
    /// The JSON text sent.
    pub text: String,
    /// True when the override rewrites the system spec (`pue`,
    /// `wsi.site`), which re-simulates the year; false when it only
    /// post-processes series (`climate.wue_scale`, `water_price`).
    pub spec_level: bool,
}

/// `distinct` different bodies over the four paper bases. Even indices
/// vary a spec-level override, odd ones a post-processing override; each
/// half cycles through the bases in turn, so every seed carries the same
/// simulation cost, and no two bodies share a base and override value.
pub fn scenario_bodies(seed: u64, distinct: usize) -> Vec<ScenarioBody> {
    let mut rng = SplitMix64(seed);
    let mut seen = HashSet::new();
    (0..distinct)
        .map(|i| {
            let spec_level = i % 2 == 0;
            loop {
                let base = MISS_BASES[(i / 2) % MISS_BASES.len()];
                let pick = rng.below(2);
                let (kind, lo, hi) = match (spec_level, pick) {
                    (true, 0) => ("pue", 1050, 1600),
                    (true, _) => ("wsi", 10, 990),
                    (false, 0) => ("wue_scale", 500, 2000),
                    (false, _) => ("price", 50, 400),
                };
                let v = lo + rng.below(hi - lo + 1);
                if !seen.insert((base, kind, v)) {
                    continue;
                }
                let overrides = match kind {
                    "pue" => format!("{{\"pue\": {}.{:03}}}", v / 1000, v % 1000),
                    "wsi" => format!("{{\"wsi\": {{\"site\": 0.{v:03}}}}}"),
                    "wue_scale" => format!(
                        "{{\"climate\": {{\"wue_scale\": {}.{:03}}}}}",
                        v / 1000,
                        v % 1000
                    ),
                    _ => format!(
                        "{{\"water_price\": {{\"base_usd_per_kl\": {}.{:02}}}}}",
                        v / 100,
                        v % 100
                    ),
                };
                return ScenarioBody {
                    text: format!(
                        "{{\"name\": \"miss-{i}\", \"base\": \"{base}\", \"overrides\": {overrides}}}"
                    ),
                    spec_level,
                };
            }
        })
        .collect()
}

/// The replay order: each of `distinct` body indices repeated until
/// `requests` entries, shuffled under `seed`.
pub fn scenario_plan(seed: u64, distinct: usize, requests: usize) -> Vec<usize> {
    let mut plan: Vec<usize> = (0..requests).map(|i| i % distinct).collect();
    let mut rng = SplitMix64(seed ^ 0xa076_1d64_78bd_642f);
    for i in (1..plan.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        plan.swap(i, j);
    }
    plan
}

/// SplitMix64: a small, fixed, well-mixed generator, so the bodies do
/// not change when the repository's RNG shim does.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection.
    fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next();
            if x < zone {
                return x % n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thirstyflops::scenario::ScenarioSpec;

    fn bench_mix() -> MixSpec {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/loadmix/bench.json"
        );
        MixSpec::from_json(&std::fs::read_to_string(path).expect("mix file")).expect("mix parses")
    }

    #[test]
    fn warm_plan_is_a_function_of_the_seed() {
        let mix = bench_mix();
        let a = warm_plan(&mix, 7, 5_000);
        assert_eq!(a, warm_plan(&mix, 7, 5_000));
        assert_ne!(a, warm_plan(&mix, 8, 5_000));
        assert!(a.iter().all(|&t| t < mix.templates.len()));
        for t in 0..mix.templates.len() {
            assert!(a.contains(&t), "template {t} never drawn");
        }
    }

    #[test]
    fn scenario_bodies_are_deterministic_distinct_and_valid() {
        let a = scenario_bodies(11, MISS_DISTINCT);
        assert_eq!(a, scenario_bodies(11, MISS_DISTINCT));
        assert_ne!(a, scenario_bodies(12, MISS_DISTINCT));
        let texts: HashSet<&str> = a.iter().map(|b| b.text.as_str()).collect();
        assert_eq!(texts.len(), MISS_DISTINCT);
        assert_eq!(a.iter().filter(|b| b.spec_level).count(), MISS_DISTINCT / 2);
        let mut specs = HashSet::new();
        for body in &a {
            let spec = ScenarioSpec::from_json(&body.text).expect(&body.text);
            let level = spec.overrides.pue.is_some() || spec.overrides.wsi.is_some();
            assert_eq!(level, body.spec_level, "{}", body.text);
            if body.spec_level {
                assert!(specs.insert(format!("{}|{:?}", spec.base, spec.overrides)));
            }
        }
    }

    #[test]
    fn scenario_plan_sends_every_body_and_is_seeded() {
        let plan = scenario_plan(3, MISS_DISTINCT, MISS_REQUESTS);
        assert_eq!(plan, scenario_plan(3, MISS_DISTINCT, MISS_REQUESTS));
        assert_ne!(plan, scenario_plan(4, MISS_DISTINCT, MISS_REQUESTS));
        let mut counts = vec![0; MISS_DISTINCT];
        for &b in &plan {
            counts[b] += 1;
        }
        assert_eq!(plan.len(), MISS_REQUESTS);
        assert!(counts.iter().all(|&c| c == 1 || c == 2));
        let repeats = counts.iter().filter(|&&c| c == 2).count();
        assert_eq!(repeats, MISS_REQUESTS - MISS_DISTINCT);
    }
}
