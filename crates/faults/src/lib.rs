//! `thirstyflops_faults` — deterministic, seeded fault injection.
//!
//! Chaos testing is only CI-gateable when the chaos itself replays: the
//! same plan against the same traffic must fire the same faults, in the
//! same aggregate counts, at any worker count. This crate provides that
//! contract. A [`FaultPlan`] (parsed from JSON text or the
//! `THIRSTYFLOPS_FAULTS` environment variable) names a set of fault
//! *sites* with firing rates; a [`FaultInjector`] decides, per visit to
//! an instrumented site, whether the fault fires.
//!
//! Determinism scheme: every decision is a pure function of
//! `(plan seed, site class, visit ordinal)`. Each site class keeps one
//! atomic visit counter; the decision for visit *k* hashes the seed,
//! the class, and *k* into a ChaCha12 stream ([`rand::rngs::StdRng`])
//! and fires when the resulting uniform draw falls under the configured
//! rate. The *number of faults fired after V visits* is therefore a
//! pure function of V — independent of which thread took which visit —
//! so aggregate fault counters are bit-identical across worker counts
//! whenever total visit counts are (see `docs/ROBUSTNESS.md` for the
//! fixed-point argument loadgen's `--chaos` mode relies on).
//!
//! The three response-write faults (latency, truncate, stall) share one
//! site class and one draw, partitioned by rate, so at most one of them
//! fires per response — the exclusivity is what keeps their per-fault
//! counts independent of scheduling.
//!
//! Zero-overhead contract: when no plan is installed, the global lookup
//! is a single relaxed atomic load and every instrumented site in
//! `serve`/`core` short-circuits on a `None` check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Fault site: the handler is made to panic mid-dispatch.
pub const SITE_HANDLER_PANIC: usize = 0;
/// Fault site: `delay_ms` of latency injected before the response write
/// (drives the per-request deadline into a 504).
pub const SITE_RESPONSE_LATENCY: usize = 1;
/// Fault site: the response write stops halfway and the connection
/// closes — the client sees a truncated wire image.
pub const SITE_WRITE_TRUNCATE: usize = 2;
/// Fault site: the response write pauses `delay_ms` halfway through,
/// then completes — slow but byte-correct.
pub const SITE_WRITE_STALL: usize = 3;
/// Fault site: an accepted connection is dropped before serving.
pub const SITE_ACCEPT_DROP: usize = 4;
/// Fault site: a simulation-cache lookup is forced to recompute
/// (bypassing the memo layer — byte-identical value, cold cost).
pub const SITE_SIMCACHE_POISON: usize = 5;

/// Site names, index order — the `"site"` strings a plan uses and the
/// `site` label on the injected-fault counters.
pub const SITE_NAMES: [&str; 6] = [
    "handler_panic",
    "response_latency",
    "write_truncate",
    "write_stall",
    "accept_drop",
    "simcache_poison",
];

/// Decision classes: sites that share one visit ordinal (and one draw).
/// The three write faults are mutually exclusive within one draw.
const CLASS_HANDLER: usize = 0;
const CLASS_WRITE: usize = 1;
const CLASS_ACCEPT: usize = 2;
const CLASS_SIMCACHE: usize = 3;
const CLASS_COUNT: usize = 4;

/// Prefix of every payload an injected panic carries; the filtered
/// panic hook ([`silence_injected_panics`]) swallows these so chaos
/// runs do not spray backtraces on stderr while real panics still
/// report normally.
pub const PANIC_MARKER: &str = "thirstyflops-fault: injected handler panic";

/// One fault configured at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Site index (see [`SITE_NAMES`]).
    pub site: usize,
    /// Firing probability per site visit, in `[0, 1]`.
    pub rate: f64,
    /// Injected delay for `response_latency` / `write_stall`
    /// (milliseconds; default 100).
    pub delay_ms: u64,
}

/// A parsed, validated fault plan.
///
/// ```json
/// {
///   "name": "smoke-chaos",
///   "seed": 42,
///   "faults": [
///     {"site": "handler_panic", "rate": 0.01},
///     {"site": "response_latency", "rate": 0.01, "delay_ms": 400}
///   ]
/// }
/// ```
///
/// Parsing is strict in the workspace's usual spirit: unknown keys,
/// unknown site names, duplicate sites, or rates outside `[0, 1]` are
/// errors. The three write-class rates must sum to ≤ 1 (they partition
/// one draw).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan name (reported in chaos tables).
    pub name: String,
    /// Seed of the decision stream. Same seed + same visit counts ⇒
    /// same fault schedule.
    pub seed: u64,
    /// Firing rate per site, [`SITE_NAMES`] order (0 = site disabled).
    pub rates: [f64; SITE_NAMES.len()],
    /// Injected delay per site, [`SITE_NAMES`] order (only meaningful
    /// for `response_latency` and `write_stall`).
    pub delays: [Duration; SITE_NAMES.len()],
}

impl FaultPlan {
    /// Parses and validates a plan from JSON text.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let obj = value
            .as_object()
            .ok_or("top level must be an object".to_string())?;
        let mut name = None;
        let mut seed = 2023u64;
        let mut rates = [0.0; SITE_NAMES.len()];
        let mut delays = [Duration::from_millis(100); SITE_NAMES.len()];
        let mut seen = [false; SITE_NAMES.len()];
        for (key, v) in obj {
            match key.as_str() {
                "name" => match v {
                    Value::Str(s) if !s.is_empty() => name = Some(s.clone()),
                    _ => return Err("name must be a non-empty string".into()),
                },
                "seed" => {
                    seed = v
                        .as_u64()
                        .ok_or("seed must be a non-negative integer".to_string())?
                }
                "faults" => {
                    let items = v.as_array().ok_or("faults must be an array".to_string())?;
                    for (i, item) in items.iter().enumerate() {
                        let spec = parse_fault(item, i)?;
                        if seen[spec.site] {
                            return Err(format!(
                                "duplicate site {:?} (each site configures at most once)",
                                SITE_NAMES[spec.site]
                            ));
                        }
                        seen[spec.site] = true;
                        rates[spec.site] = spec.rate;
                        delays[spec.site] = Duration::from_millis(spec.delay_ms);
                    }
                }
                other => {
                    return Err(format!(
                        "unknown key {other:?} (expected name, seed, faults)"
                    ))
                }
            }
        }
        let name = name.ok_or("missing required key \"name\"".to_string())?;
        let write_sum =
            rates[SITE_RESPONSE_LATENCY] + rates[SITE_WRITE_TRUNCATE] + rates[SITE_WRITE_STALL];
        if write_sum > 1.0 {
            return Err(format!(
                "response_latency + write_truncate + write_stall rates sum to {write_sum}, \
                 which exceeds 1 (they partition one draw per response)"
            ));
        }
        Ok(FaultPlan {
            name,
            seed,
            rates,
            delays,
        })
    }

    /// Whether any configured site can fire at all.
    pub fn is_armed(&self) -> bool {
        self.rates.iter().any(|r| *r > 0.0)
    }
}

fn parse_fault(v: &Value, index: usize) -> Result<FaultSpec, String> {
    let ctx = format!("faults[{index}]");
    let obj = v.as_object().ok_or(format!("{ctx} must be an object"))?;
    let mut site = None;
    let mut rate = None;
    let mut delay_ms = 100u64;
    for (key, v) in obj {
        match key.as_str() {
            "site" => {
                let s = match v {
                    Value::Str(s) => s.as_str(),
                    _ => return Err(format!("{ctx}.site must be a string")),
                };
                site = Some(SITE_NAMES.iter().position(|n| *n == s).ok_or(format!(
                    "{ctx}.site: unknown site {s:?} (expected one of {SITE_NAMES:?})"
                ))?);
            }
            "rate" => {
                let r = v
                    .as_f64()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or(format!("{ctx}.rate must be a number in [0, 1]"))?;
                rate = Some(r);
            }
            "delay_ms" => {
                delay_ms = v
                    .as_u64()
                    .ok_or(format!("{ctx}.delay_ms must be a non-negative integer"))?
            }
            other => {
                return Err(format!(
                    "{ctx}: unknown key {other:?} (expected site, rate, delay_ms)"
                ))
            }
        }
    }
    Ok(FaultSpec {
        site: site.ok_or(format!("{ctx}: missing \"site\""))?,
        rate: rate.ok_or(format!("{ctx}: missing \"rate\""))?,
        delay_ms,
    })
}

/// What a write-class decision injects into one response write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Sleep this long before writing (then the deadline check runs).
    Latency(Duration),
    /// Write only the first half of the wire bytes, then close.
    Truncate,
    /// Write half, sleep this long, write the rest.
    Stall(Duration),
}

/// A live injector: the plan plus per-class visit ordinals and
/// per-site injected counters.
///
/// Counters are instance-local (like `serve`'s endpoint table) so tests
/// can run many injectors in one process; [`FaultInjector::mirrored`]
/// additionally mirrors increments into the global observability
/// registry as `thirstyflops_faults_injected_total{site=...}` — the
/// CLI's globally-installed injector uses that so chaos runs show up in
/// `/v1/metrics`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    ordinals: [AtomicU64; CLASS_COUNT],
    injected: [AtomicU64; SITE_NAMES.len()],
    mirror: Option<[thirstyflops_obs::registry::Counter; SITE_NAMES.len()]>,
}

impl FaultInjector {
    /// Builds an injector with instance-local counters only.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            ordinals: Default::default(),
            injected: Default::default(),
            mirror: None,
        }
    }

    /// Builds an injector that also mirrors injected-fault counts into
    /// the global registry (`thirstyflops_faults_injected_total`).
    pub fn mirrored(plan: FaultPlan) -> FaultInjector {
        let mirror = SITE_NAMES.map(|site| {
            thirstyflops_obs::registry::global().counter_labeled(
                "thirstyflops_faults_injected_total",
                &[("site", site)],
                "faults fired per injection site (chaos plans only)",
            )
        });
        FaultInjector {
            mirror: Some(mirror),
            ..FaultInjector::new(plan)
        }
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The deterministic uniform draw for visit `ordinal` of `class`.
    fn draw(&self, class: usize) -> f64 {
        let ordinal = self.ordinals[class].fetch_add(1, Ordering::Relaxed);
        // Golden-ratio mixing keeps nearby (class, ordinal) pairs on
        // well-separated ChaCha12 streams.
        let key = self
            .plan
            .seed
            .wrapping_add((class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(ordinal.wrapping_mul(0xD1B5_4A32_D192_ED03));
        StdRng::seed_from_u64(key).random::<f64>()
    }

    fn fired(&self, site: usize) {
        self.injected[site].fetch_add(1, Ordering::Relaxed);
        if let Some(mirror) = &self.mirror {
            mirror[site].inc();
        }
        // Annotate the active causal trace (if any) so "which request
        // did that injected fault land on?" is answerable from
        // `/v1/trace`, `--trace-out`, and the structured access log.
        thirstyflops_obs::trace::mark(SITE_NAMES[site]);
    }

    fn decide_single(&self, class: usize, site: usize) -> bool {
        if self.plan.rates[site] <= 0.0 {
            return false;
        }
        let fire = self.draw(class) < self.plan.rates[site];
        if fire {
            self.fired(site);
        }
        fire
    }

    /// One handler visit: does the injected panic fire?
    pub fn decide_handler_panic(&self) -> bool {
        self.decide_single(CLASS_HANDLER, SITE_HANDLER_PANIC)
    }

    /// One accept visit: is the freshly-accepted connection dropped?
    pub fn decide_accept_drop(&self) -> bool {
        self.decide_single(CLASS_ACCEPT, SITE_ACCEPT_DROP)
    }

    /// One simulation-cache lookup: is the memo layer bypassed?
    pub fn decide_simcache_poison(&self) -> bool {
        self.decide_single(CLASS_SIMCACHE, SITE_SIMCACHE_POISON)
    }

    /// One response write: which write fault (if any) fires. The three
    /// write faults partition a single draw, so they are mutually
    /// exclusive per response.
    pub fn decide_write(&self) -> Option<WriteFault> {
        let rates = &self.plan.rates;
        if rates[SITE_RESPONSE_LATENCY] <= 0.0
            && rates[SITE_WRITE_TRUNCATE] <= 0.0
            && rates[SITE_WRITE_STALL] <= 0.0
        {
            return None;
        }
        let u = self.draw(CLASS_WRITE);
        let mut lo = 0.0;
        for site in [SITE_RESPONSE_LATENCY, SITE_WRITE_TRUNCATE, SITE_WRITE_STALL] {
            let hi = lo + rates[site];
            if u >= lo && u < hi {
                self.fired(site);
                return Some(match site {
                    SITE_RESPONSE_LATENCY => WriteFault::Latency(self.plan.delays[site]),
                    SITE_WRITE_TRUNCATE => WriteFault::Truncate,
                    _ => WriteFault::Stall(self.plan.delays[site]),
                });
            }
            lo = hi;
        }
        None
    }

    /// Injected-fault counts so far, [`SITE_NAMES`] order.
    pub fn injected_snapshot(&self) -> [(&'static str, u64); SITE_NAMES.len()] {
        let mut out = [("", 0u64); SITE_NAMES.len()];
        for (i, name) in SITE_NAMES.iter().enumerate() {
            out[i] = (name, self.injected[i].load(Ordering::Relaxed));
        }
        out
    }
}

/// The fast-path flag: `true` only while a plan is installed globally.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<FaultInjector>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultInjector>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs an injector process-wide: instrumented sites that consult
/// the global slot (the simulation cache; servers bound afterwards)
/// replay this plan. Also installs the filtered panic hook when the
/// plan can fire `handler_panic`.
pub fn install(injector: Arc<FaultInjector>) {
    if injector.plan.rates[SITE_HANDLER_PANIC] > 0.0 {
        silence_injected_panics();
    }
    *slot().lock().expect("fault slot lock") = Some(injector);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the globally-installed injector (sites revert to the
/// relaxed-load fast path).
pub fn clear() {
    ACTIVE.store(false, Ordering::SeqCst);
    *slot().lock().expect("fault slot lock") = None;
}

/// The globally-installed injector, if any. One relaxed atomic load
/// when no plan is installed — the zero-fault overhead contract.
pub fn global() -> Option<Arc<FaultInjector>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    slot().lock().expect("fault slot lock").clone()
}

/// Force-registers the `thirstyflops_faults_injected_total` family
/// (every site, zero-valued) in the global observability registry.
/// Idempotent. `serve`'s `/v1/metrics` handler calls this whenever a
/// fault plan is installed, so a fresh chaos server exposes the family
/// before the first injection instead of it being silently absent.
pub fn register_injected_family() {
    for site in SITE_NAMES {
        let _ = thirstyflops_obs::registry::global().counter_labeled(
            "thirstyflops_faults_injected_total",
            &[("site", site)],
            "faults fired per injection site (chaos plans only)",
        );
    }
}

/// One global simulation-cache poison decision; `false` (one relaxed
/// load) when no plan is installed. `core::simcache` calls this on
/// every memoized-layer lookup.
pub fn global_simcache_poisoned() -> bool {
    match global() {
        Some(injector) => injector.decide_simcache_poison(),
        None => false,
    }
}

/// Installs a process panic hook (once) that swallows payloads carrying
/// [`PANIC_MARKER`]'s prefix and delegates everything else to the
/// previous hook — injected panics stay quiet, real panics still print.
pub fn silence_injected_panics() {
    static HOOKED: std::sync::Once = std::sync::Once::new();
    HOOKED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
            if payload.is_some_and(|m| m.starts_with("thirstyflops-fault:")) {
                return;
            }
            previous(info);
        }));
    });
}

/// Reads `THIRSTYFLOPS_FAULTS` (inline JSON when it starts with `{`,
/// otherwise a plan-file path), parses, and installs globally. Returns
/// the installed injector, `Ok(None)` when the variable is unset.
pub fn install_from_env() -> Result<Option<Arc<FaultInjector>>, String> {
    let raw = match std::env::var("THIRSTYFLOPS_FAULTS") {
        Ok(v) if !v.trim().is_empty() => v,
        _ => return Ok(None),
    };
    let text = if raw.trim_start().starts_with('{') {
        raw
    } else {
        std::fs::read_to_string(raw.trim())
            .map_err(|e| format!("THIRSTYFLOPS_FAULTS: cannot read {raw:?}: {e}"))?
    };
    let plan =
        FaultPlan::from_json(&text).map_err(|e| format!("THIRSTYFLOPS_FAULTS: bad plan: {e}"))?;
    let injector = Arc::new(FaultInjector::mirrored(plan));
    install(Arc::clone(&injector));
    Ok(Some(injector))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::from_json(text).expect("plan parses")
    }

    const FULL: &str = r#"{
        "name": "t", "seed": 7, "faults": [
            {"site": "handler_panic", "rate": 0.25},
            {"site": "response_latency", "rate": 0.2, "delay_ms": 250},
            {"site": "write_truncate", "rate": 0.2},
            {"site": "write_stall", "rate": 0.1, "delay_ms": 5},
            {"site": "accept_drop", "rate": 0.5},
            {"site": "simcache_poison", "rate": 0.5}
        ]}"#;

    #[test]
    fn plan_parses_rates_and_delays() {
        let p = plan(FULL);
        assert_eq!(p.name, "t");
        assert_eq!(p.seed, 7);
        assert_eq!(p.rates[SITE_HANDLER_PANIC], 0.25);
        assert_eq!(p.delays[SITE_RESPONSE_LATENCY], Duration::from_millis(250));
        assert_eq!(p.delays[SITE_WRITE_STALL], Duration::from_millis(5));
        assert!(p.is_armed());
        assert!(!plan(r#"{"name": "off"}"#).is_armed());
    }

    #[test]
    fn bad_plans_fail_loudly() {
        for (text, needle) in [
            (r#"{"faults": []}"#, "missing required key \"name\""),
            (r#"{"name": "x", "fault": []}"#, "unknown key"),
            (
                r#"{"name": "x", "faults": [{"site": "nope", "rate": 0.1}]}"#,
                "unknown site",
            ),
            (
                r#"{"name": "x", "faults": [{"site": "accept_drop", "rate": 1.5}]}"#,
                "in [0, 1]",
            ),
            (
                r#"{"name": "x", "faults": [{"site": "accept_drop"}]}"#,
                "missing \"rate\"",
            ),
            (
                r#"{"name": "x", "faults": [
                    {"site": "accept_drop", "rate": 0.1},
                    {"site": "accept_drop", "rate": 0.2}]}"#,
                "duplicate site",
            ),
            (
                r#"{"name": "x", "faults": [
                    {"site": "response_latency", "rate": 0.6},
                    {"site": "write_truncate", "rate": 0.6}]}"#,
                "exceeds 1",
            ),
        ] {
            let err = FaultPlan::from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn decisions_replay_bit_identically() {
        let a = FaultInjector::new(plan(FULL));
        let b = FaultInjector::new(plan(FULL));
        for _ in 0..200 {
            assert_eq!(a.decide_handler_panic(), b.decide_handler_panic());
            assert_eq!(a.decide_write(), b.decide_write());
            assert_eq!(a.decide_accept_drop(), b.decide_accept_drop());
            assert_eq!(a.decide_simcache_poison(), b.decide_simcache_poison());
        }
        assert_eq!(a.injected_snapshot(), b.injected_snapshot());
        // The schedule is non-trivial: every configured site fired at
        // least once over 200 visits at these rates.
        for (site, count) in a.injected_snapshot() {
            assert!(count > 0, "{site} never fired in 200 visits");
        }
    }

    #[test]
    fn fault_counts_depend_only_on_visit_counts() {
        // Interleave visits across 4 threads; the aggregate injected
        // counts must match a serial replay with the same totals.
        let serial = FaultInjector::new(plan(FULL));
        for _ in 0..400 {
            serial.decide_handler_panic();
            serial.decide_write();
        }
        let threaded = Arc::new(FaultInjector::new(plan(FULL)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let inj = Arc::clone(&threaded);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        inj.decide_handler_panic();
                        inj.decide_write();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(serial.injected_snapshot(), threaded.injected_snapshot());
    }

    #[test]
    fn write_faults_are_mutually_exclusive_and_typed() {
        let inj = FaultInjector::new(plan(FULL));
        let mut saw = [false; 3];
        for _ in 0..300 {
            match inj.decide_write() {
                Some(WriteFault::Latency(d)) => {
                    assert_eq!(d, Duration::from_millis(250));
                    saw[0] = true;
                }
                Some(WriteFault::Truncate) => saw[1] = true,
                Some(WriteFault::Stall(d)) => {
                    assert_eq!(d, Duration::from_millis(5));
                    saw[2] = true;
                }
                None => {}
            }
        }
        assert_eq!(saw, [true; 3], "all three write faults occur");
        let snap = inj.injected_snapshot();
        let total: u64 = [SITE_RESPONSE_LATENCY, SITE_WRITE_TRUNCATE, SITE_WRITE_STALL]
            .iter()
            .map(|s| snap[*s].1)
            .sum();
        assert!(total <= 300, "at most one write fault per visit");
    }

    #[test]
    fn disabled_sites_never_fire_and_skip_the_draw() {
        let inj = FaultInjector::new(plan(r#"{"name": "quiet"}"#));
        for _ in 0..50 {
            assert!(!inj.decide_handler_panic());
            assert_eq!(inj.decide_write(), None);
            assert!(!inj.decide_accept_drop());
            assert!(!inj.decide_simcache_poison());
        }
        assert!(inj.injected_snapshot().iter().all(|(_, n)| *n == 0));
    }

    #[test]
    fn global_slot_installs_and_clears() {
        // Serialized against other global-slot tests by running in one
        // test; the fast path must read None before and after.
        assert!(global().is_none());
        assert!(!global_simcache_poisoned());
        let inj = Arc::new(FaultInjector::new(plan(
            r#"{"name": "g", "faults": [{"site": "simcache_poison", "rate": 1.0}]}"#,
        )));
        install(Arc::clone(&inj));
        assert!(global().is_some());
        assert!(global_simcache_poisoned(), "rate 1.0 always fires");
        clear();
        assert!(global().is_none());
        assert_eq!(inj.injected_snapshot()[SITE_SIMCACHE_POISON].1, 1);
    }

    #[test]
    fn injected_panics_are_marked() {
        silence_injected_panics();
        let err = std::panic::catch_unwind(|| panic!("{PANIC_MARKER}")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with("thirstyflops-fault:"));
    }
}
