//! Request-mix specs: the recorded traffic shape a load run replays.
//!
//! A mix file is a small JSON document of weighted endpoint templates:
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "seed": 2023,
//!   "templates": [
//!     {"target": "/healthz", "weight": 1, "verify": false},
//!     {"target": "/v1/footprint/polaris?seed=7", "weight": 4},
//!     {"target": "/v1/scenarios/run", "method": "POST",
//!      "body": {"name": "noop", "base": "polaris"}, "weight": 2}
//!   ]
//! }
//! ```
//!
//! Parsing is strict in the same spirit as the scenario engine
//! (`docs/SCENARIOS.md`): unknown keys, zero weights, or non-`/` targets
//! are errors, so a typo in a recorded mix fails loudly instead of
//! silently replaying the wrong traffic. A `body` given as a JSON
//! object/array is serialized compactly once at parse time, so the
//! replayed bytes are fixed from then on.

use crate::LoadError;
use serde::Value;

/// One weighted endpoint template in a mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Relative draw weight (≥ 1).
    pub weight: u64,
    /// HTTP method (`GET` or `POST`).
    pub method: String,
    /// Request target: path plus optional `?query`, e.g.
    /// `/v1/footprint/polaris?seed=7`.
    pub target: String,
    /// Request body bytes (empty for body-less requests).
    pub body: String,
    /// Whether replayed responses are byte-compared against the
    /// precomputed expected response. Defaults to true; set `"verify":
    /// false` only for endpoints whose bodies are legitimately
    /// non-deterministic (`/healthz` uptime/request counts,
    /// `/v1/cache/stats` and `/v1/metrics` counters).
    pub verify: bool,
}

/// A parsed request mix: named, seeded, weighted templates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixSpec {
    /// Mix name (reported in the summary table and `--json` output).
    pub name: String,
    /// Seed for the request plan's RNG (default 2023, the model year).
    pub seed: u64,
    /// The weighted templates (at least one).
    pub templates: Vec<Template>,
}

impl MixSpec {
    /// Parses and validates a mix spec from JSON text.
    pub fn from_json(text: &str) -> Result<MixSpec, LoadError> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| LoadError::Mix(format!("invalid JSON: {e}")))?;
        let obj = value
            .as_object()
            .ok_or_else(|| LoadError::Mix("top level must be an object".into()))?;

        let mut name = None;
        let mut seed = 2023u64;
        let mut templates = Vec::new();
        for (key, v) in obj {
            match key.as_str() {
                "name" => name = Some(parse_string(v, "name")?),
                "seed" => {
                    seed = v.as_u64().ok_or_else(|| {
                        LoadError::Mix("seed must be a non-negative integer".into())
                    })?
                }
                "templates" => {
                    let items = v
                        .as_array()
                        .ok_or_else(|| LoadError::Mix("templates must be an array".into()))?;
                    for (i, item) in items.iter().enumerate() {
                        templates.push(parse_template(item, i)?);
                    }
                }
                other => {
                    return Err(LoadError::Mix(format!(
                        "unknown key {other:?} (expected name, seed, templates)"
                    )))
                }
            }
        }
        let name = name.ok_or_else(|| LoadError::Mix("missing required key \"name\"".into()))?;
        if templates.is_empty() {
            return Err(LoadError::Mix(
                "templates must list at least one template".into(),
            ));
        }
        Ok(MixSpec {
            name,
            seed,
            templates,
        })
    }

    /// Sum of all template weights (the plan RNG's draw range).
    pub fn total_weight(&self) -> u64 {
        self.templates.iter().map(|t| t.weight).sum()
    }
}

fn parse_template(v: &Value, index: usize) -> Result<Template, LoadError> {
    let ctx = format!("templates[{index}]");
    let obj = v
        .as_object()
        .ok_or_else(|| LoadError::Mix(format!("{ctx} must be an object")))?;

    let mut weight = 1u64;
    let mut method = None;
    let mut target = None;
    let mut body = String::new();
    let mut has_body = false;
    let mut verify = true;
    for (key, v) in obj {
        match key.as_str() {
            "weight" => {
                weight = v
                    .as_u64()
                    .filter(|w| *w >= 1)
                    .ok_or_else(|| LoadError::Mix(format!("{ctx}.weight must be an integer ≥ 1")))?
            }
            "method" => {
                let m = parse_string(v, &format!("{ctx}.method"))?.to_ascii_uppercase();
                if m != "GET" && m != "POST" {
                    return Err(LoadError::Mix(format!(
                        "{ctx}.method must be GET or POST, got {m:?}"
                    )));
                }
                method = Some(m);
            }
            "target" => target = Some(parse_string(v, &format!("{ctx}.target"))?),
            "body" => {
                has_body = true;
                body = match v {
                    // A string body is replayed verbatim; a structured
                    // body is fixed to its compact rendering here.
                    Value::Str(s) => s.clone(),
                    Value::Object(_) | Value::Array(_) => serde_json::to_string(v)
                        .map_err(|e| LoadError::Mix(format!("{ctx}.body: {e}")))?,
                    _ => {
                        return Err(LoadError::Mix(format!(
                            "{ctx}.body must be a string, object, or array"
                        )))
                    }
                };
            }
            "verify" => {
                verify = match v {
                    Value::Bool(b) => *b,
                    _ => return Err(LoadError::Mix(format!("{ctx}.verify must be a boolean"))),
                }
            }
            other => {
                return Err(LoadError::Mix(format!(
                    "{ctx}: unknown key {other:?} (expected weight, method, target, body, verify)"
                )))
            }
        }
    }
    let target = target.ok_or_else(|| LoadError::Mix(format!("{ctx}: missing \"target\"")))?;
    if !target.starts_with('/') {
        return Err(LoadError::Mix(format!(
            "{ctx}.target must start with '/', got {target:?}"
        )));
    }
    // Default the method from the body's presence: a template with a
    // body is a POST unless it says otherwise.
    let method = method.unwrap_or_else(|| {
        if has_body {
            "POST".into()
        } else {
            "GET".into()
        }
    });
    if method == "GET" && has_body {
        return Err(LoadError::Mix(format!(
            "{ctx}: GET templates cannot carry a body"
        )));
    }
    Ok(Template {
        weight,
        method,
        target,
        body,
        verify,
    })
}

fn parse_string(v: &Value, ctx: &str) -> Result<String, LoadError> {
    match v {
        Value::Str(s) if !s.is_empty() => Ok(s.clone()),
        _ => Err(LoadError::Mix(format!("{ctx} must be a non-empty string"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_mix_parses_with_defaults() {
        let mix =
            MixSpec::from_json(r#"{"name": "m", "templates": [{"target": "/healthz"}]}"#).unwrap();
        assert_eq!(mix.name, "m");
        assert_eq!(mix.seed, 2023);
        assert_eq!(mix.templates.len(), 1);
        let t = &mix.templates[0];
        assert_eq!(
            (t.weight, t.method.as_str(), t.target.as_str(), t.verify),
            (1, "GET", "/healthz", true)
        );
        assert!(t.body.is_empty());
        assert_eq!(mix.total_weight(), 1);
    }

    #[test]
    fn structured_body_defaults_to_post_and_renders_compactly() {
        let mix = MixSpec::from_json(
            r#"{"name": "m", "templates": [
                {"target": "/v1/scenarios/run", "body": {"name": "noop", "base": "polaris"}}
            ]}"#,
        )
        .unwrap();
        let t = &mix.templates[0];
        assert_eq!(t.method, "POST");
        assert_eq!(t.body, r#"{"name":"noop","base":"polaris"}"#);
    }

    #[test]
    fn unknown_keys_fail_loudly() {
        for (spec, needle) in [
            (r#"{"name": "m", "templats": []}"#, "unknown key"),
            (
                r#"{"name": "m", "templates": [{"target": "/x", "wieght": 2}]}"#,
                "unknown key",
            ),
        ] {
            let err = MixSpec::from_json(spec).unwrap_err();
            assert!(
                matches!(&err, LoadError::Mix(m) if m.contains(needle)),
                "{err}"
            );
        }
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        for spec in [
            r#"{"templates": [{"target": "/x"}]}"#,             // no name
            r#"{"name": "m", "templates": []}"#,                // empty
            r#"{"name": "m", "templates": [{"target": "x"}]}"#, // no slash
            r#"{"name": "m", "templates": [{"target": "/x", "weight": 0}]}"#,
            r#"{"name": "m", "templates": [{"target": "/x", "method": "PUT"}]}"#,
            r#"{"name": "m", "templates": [{"target": "/x", "method": "GET", "body": "b"}]}"#,
            r#"{"name": "m", "seed": -1, "templates": [{"target": "/x"}]}"#,
        ] {
            assert!(MixSpec::from_json(spec).is_err(), "accepted: {spec}");
        }
    }

    #[test]
    fn weights_sum() {
        let mix = MixSpec::from_json(
            r#"{"name": "m", "seed": 7, "templates": [
                {"target": "/a", "weight": 3}, {"target": "/b", "weight": 5}
            ]}"#,
        )
        .unwrap();
        assert_eq!(mix.total_weight(), 8);
        assert_eq!(mix.seed, 7);
    }
}
