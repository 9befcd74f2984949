//! URL routing: path → [`Route`], plus ordered query-string parsing.
//!
//! Routing is pure string matching with no allocation-heavy framework:
//! the endpoint table is small and fixed, and keeping it as a `match`
//! over path segments makes the URL space auditable at a glance (see
//! `docs/SERVING.md` for the endpoint table).

use crate::error::ServeError;
use crate::http::percent_decode;

/// The API's endpoint families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz` — liveness probe.
    Healthz,
    /// `GET /readyz` — readiness probe: 200 while accepting traffic,
    /// 503 (+ `Retry-After`) once the server is draining.
    Readyz,
    /// `GET /v1/cache/stats` — body, simulation and batch cache counters.
    CacheStats,
    /// `GET /v1/systems` — the catalog listing.
    Systems,
    /// `GET /v1/footprint/{system}` — one system's annual report.
    Footprint(String),
    /// `GET /v1/compare?a=&b=` — two systems side by side.
    Compare,
    /// `GET /v1/rank` — Water500-style ranking of all systems.
    Rank,
    /// `GET /v1/scenario/{system}` — Fig. 14 energy-source what-ifs.
    Scenario(String),
    /// `POST /v1/scenarios/run` — evaluate a scenario spec (body =
    /// spec JSON, `docs/SCENARIOS.md`).
    ScenarioRun,
    /// `POST /v1/scenarios/sweep` — expand and evaluate a sweep spec.
    ScenarioSweep,
    /// `GET /v1/experiments` — the artifact id listing.
    ExperimentIndex,
    /// `GET /v1/experiments/{id}` — one regenerated paper artifact.
    Experiment(String),
    /// `GET /v1/metrics` — Prometheus text exposition of the global
    /// registry plus the server's own.
    Metrics,
    /// `GET /v1/trace?last=N` — the trace recorder's most recent span
    /// events as Chrome `trace_event` JSON.
    Trace,
}

/// The endpoint metrics families' `endpoint` label values, indexed by
/// [`Endpoint`]. `shed` counts capacity rejections (503 connection
/// sheds, 413/431 over-cap requests and 504 deadline misses — see
/// `docs/SERVING.md`); `other` absorbs unroutable paths and the
/// remaining unparsable requests.
pub const ENDPOINTS: [&str; 15] = [
    "healthz",
    "readyz",
    "cache_stats",
    "systems",
    "footprint",
    "compare",
    "rank",
    "scenario",
    "scenarios_run",
    "scenarios_sweep",
    "experiments",
    "metrics",
    "trace",
    "shed",
    "other",
];

/// One endpoint family, named after its label; variants follow
/// [`ENDPOINTS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Endpoint {
    Healthz,
    Readyz,
    CacheStats,
    Systems,
    Footprint,
    Compare,
    Rank,
    Scenario,
    ScenariosRun,
    ScenariosSweep,
    Experiments,
    Metrics,
    Trace,
    Shed,
    Other,
}

impl Endpoint {
    /// The family's `endpoint` label value.
    pub fn label(self) -> &'static str {
        ENDPOINTS[self as usize]
    }
}

/// `thirstyflops_shed_total`'s `reason` label values, indexed by
/// [`ShedReason`].
pub const SHED_REASONS: [&str; 4] = [
    "connection_limit",
    "head_too_large",
    "body_too_large",
    "deadline",
];

/// Why a request was shed, named after its label; variants follow
/// [`SHED_REASONS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Accept-time 503 at `--max-connections`.
    ConnectionLimit,
    /// 431 over-cap request head.
    HeadTooLarge,
    /// 413 over-cap request body.
    BodyTooLarge,
    /// 504 past `--request-timeout`.
    Deadline,
}

impl ShedReason {
    /// The reason's `reason` label value.
    pub fn label(self) -> &'static str {
        SHED_REASONS[self as usize]
    }
}

impl Route {
    /// The metrics family this route counts into.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Route::Healthz => Endpoint::Healthz,
            Route::Readyz => Endpoint::Readyz,
            Route::CacheStats => Endpoint::CacheStats,
            Route::Systems => Endpoint::Systems,
            Route::Footprint(_) => Endpoint::Footprint,
            Route::Compare => Endpoint::Compare,
            Route::Rank => Endpoint::Rank,
            Route::Scenario(_) => Endpoint::Scenario,
            Route::ScenarioRun => Endpoint::ScenariosRun,
            Route::ScenarioSweep => Endpoint::ScenariosSweep,
            Route::ExperimentIndex | Route::Experiment(_) => Endpoint::Experiments,
            Route::Metrics => Endpoint::Metrics,
            Route::Trace => Endpoint::Trace,
        }
    }

    /// True for the routes that take a spec JSON body (and therefore
    /// require `POST` — everything else is `GET`-only).
    pub fn takes_body(&self) -> bool {
        matches!(self, Route::ScenarioRun | Route::ScenarioSweep)
    }
}

/// Resolves a decoded path to a route.
pub fn route(path: &str) -> Result<Route, ServeError> {
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match segments.as_slice() {
        ["healthz"] => Ok(Route::Healthz),
        ["readyz"] => Ok(Route::Readyz),
        ["v1", "cache", "stats"] => Ok(Route::CacheStats),
        ["v1", "systems"] => Ok(Route::Systems),
        ["v1", "footprint", system] if !system.is_empty() => {
            Ok(Route::Footprint(system.to_string()))
        }
        ["v1", "compare"] => Ok(Route::Compare),
        ["v1", "rank"] => Ok(Route::Rank),
        ["v1", "scenario", system] if !system.is_empty() => Ok(Route::Scenario(system.to_string())),
        ["v1", "scenarios", "run"] => Ok(Route::ScenarioRun),
        ["v1", "scenarios", "sweep"] => Ok(Route::ScenarioSweep),
        ["v1", "experiments"] => Ok(Route::ExperimentIndex),
        ["v1", "experiments", id] if !id.is_empty() => Ok(Route::Experiment(id.to_string())),
        ["v1", "metrics"] => Ok(Route::Metrics),
        ["v1", "trace"] => Ok(Route::Trace),
        _ => Err(ServeError::NotFound(format!("no route for {path:?}"))),
    }
}

/// Parsed query parameters, preserving wire order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query(Vec<(String, String)>);

impl Query {
    /// Parses a raw query string (`a=1&b=2`). Keys without `=` get an
    /// empty value (so `?adjusted` reads as `adjusted=`). Percent-escapes
    /// are decoded in both keys and values.
    pub fn parse(raw: &str) -> Result<Query, ServeError> {
        let mut pairs = Vec::new();
        for piece in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
            let decode = |s: &str| {
                percent_decode(s).ok_or_else(|| {
                    ServeError::BadRequest(format!("bad percent-escape in query {piece:?}"))
                })
            };
            pairs.push((decode(k)?, decode(v)?));
        }
        Ok(Query(pairs))
    }

    /// First value for a key, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A required, non-empty string parameter (`/v1/compare`'s `a=` and
    /// `b=`).
    pub fn required(&self, key: &str) -> Result<&str, ServeError> {
        self.get(key).filter(|v| !v.is_empty()).ok_or_else(|| {
            ServeError::BadRequest(format!("missing required query parameter {key:?}"))
        })
    }

    /// `seed` parameter with the CLI's default of 2023.
    pub fn seed(&self) -> Result<u64, ServeError> {
        match self.get("seed") {
            None => Ok(2023),
            Some(raw) => raw.parse().map_err(|_| {
                ServeError::BadRequest(format!("seed must be a non-negative integer, got {raw:?}"))
            }),
        }
    }

    /// Boolean parameter: absent ⇒ `false`; present with an empty value,
    /// `1`, or `true` ⇒ `true`; `0`/`false` ⇒ `false`.
    pub fn flag(&self, key: &str) -> Result<bool, ServeError> {
        match self.get(key) {
            None => Ok(false),
            Some("" | "1" | "true") => Ok(true),
            Some("0" | "false") => Ok(false),
            Some(other) => Err(ServeError::BadRequest(format!(
                "{key} must be true/false/1/0, got {other:?}"
            ))),
        }
    }

    /// Rejects any parameter not in `allowed` — typos like `?sed=7` fail
    /// loudly instead of silently serving the default.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ServeError> {
        for (k, _) in &self.0 {
            if !allowed.contains(&k.as_str()) {
                return Err(ServeError::BadRequest(format!(
                    "unknown query parameter {k:?} (allowed: {allowed:?})"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_resolve() {
        assert_eq!(route("/healthz"), Ok(Route::Healthz));
        assert_eq!(route("/readyz"), Ok(Route::Readyz));
        assert_eq!(route("/v1/cache/stats"), Ok(Route::CacheStats));
        assert_eq!(route("/v1/systems"), Ok(Route::Systems));
        assert_eq!(
            route("/v1/footprint/polaris"),
            Ok(Route::Footprint("polaris".into()))
        );
        assert_eq!(route("/v1/compare"), Ok(Route::Compare));
        assert_eq!(route("/v1/rank"), Ok(Route::Rank));
        assert_eq!(
            route("/v1/scenario/fugaku"),
            Ok(Route::Scenario("fugaku".into()))
        );
        assert_eq!(route("/v1/scenarios/run"), Ok(Route::ScenarioRun));
        assert_eq!(route("/v1/scenarios/sweep"), Ok(Route::ScenarioSweep));
        assert_eq!(route("/v1/experiments"), Ok(Route::ExperimentIndex));
        assert_eq!(
            route("/v1/experiments/fig05"),
            Ok(Route::Experiment("fig05".into()))
        );
        assert_eq!(route("/v1/metrics"), Ok(Route::Metrics));
        assert_eq!(route("/v1/trace"), Ok(Route::Trace));
        // Trailing slash tolerated.
        assert_eq!(route("/v1/rank/"), Ok(Route::Rank));
    }

    #[test]
    fn metrics_labels_cover_every_route() {
        for (path, label) in [
            ("/healthz", "healthz"),
            ("/readyz", "readyz"),
            ("/v1/cache/stats", "cache_stats"),
            ("/v1/systems", "systems"),
            ("/v1/footprint/polaris", "footprint"),
            ("/v1/compare", "compare"),
            ("/v1/rank", "rank"),
            ("/v1/scenario/fugaku", "scenario"),
            ("/v1/scenarios/run", "scenarios_run"),
            ("/v1/scenarios/sweep", "scenarios_sweep"),
            ("/v1/experiments/fig05", "experiments"),
            ("/v1/metrics", "metrics"),
            ("/v1/trace", "trace"),
        ] {
            assert_eq!(route(path).unwrap().endpoint().label(), label);
        }
        assert!(route("/v1/scenarios/run").unwrap().takes_body());
        assert!(!route("/v1/rank").unwrap().takes_body());
    }

    #[test]
    fn unknown_paths_404() {
        for path in ["/", "/v2/rank", "/v1/footprint", "/v1/footprint/a/b"] {
            assert!(
                matches!(route(path), Err(ServeError::NotFound(_))),
                "{path}"
            );
        }
    }

    #[test]
    fn query_parses_in_order() {
        let q = Query::parse("seed=7&adjusted").unwrap();
        assert_eq!(q.get("seed"), Some("7"));
        assert_eq!(q.seed().unwrap(), 7);
        assert!(q.flag("adjusted").unwrap());
        assert!(!Query::parse("").unwrap().flag("adjusted").unwrap());
    }

    #[test]
    fn query_rejects_garbage() {
        assert!(Query::parse("seed=abc").unwrap().seed().is_err());
        assert!(Query::parse("seed=-1").unwrap().seed().is_err());
        assert!(Query::parse("adjusted=maybe")
            .unwrap()
            .flag("adjusted")
            .is_err());
        assert!(Query::parse("seed=7&sed=9")
            .unwrap()
            .expect_only(&["seed"])
            .is_err());
        assert!(Query::parse("a=%zz").is_err());
    }

    #[test]
    fn default_seed_matches_cli() {
        assert_eq!(Query::parse("").unwrap().seed().unwrap(), 2023);
    }
}
