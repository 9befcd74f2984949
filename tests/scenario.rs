//! Integration tests of the declarative scenario engine: the spec
//! library evaluates, sweeps expand to their full cartesian product and
//! respect their ceilings, and — the determinism contract — the same
//! spec produces byte-identical JSON at every thread count, through the
//! CLI (`tests/matrix`) and the library.

use std::process::Command;

use thirstyflops::scenario::{evaluate_sweep, ScenarioSpec, SweepSpec};

mod matrix;

fn spec_path(name: &str) -> String {
    format!("{}/examples/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The acceptance-criteria sweep: `sweep_siting.json` expands to 25
/// scenarios (≥ 24) and evaluates them all.
#[test]
fn siting_sweep_expands_to_25_scenarios_and_evaluates() {
    let text = std::fs::read_to_string(spec_path("sweep_siting.json")).expect("spec ships");
    let sweep = SweepSpec::from_json(&text).expect("sweep parses");
    let specs = sweep.expand().expect("sweep expands");
    assert!(specs.len() >= 24, "{} scenarios", specs.len());
    assert_eq!(specs.len(), 25, "5 climates x 5 regions");
    let report = evaluate_sweep(&sweep).expect("sweep evaluates");
    assert_eq!(report.scenario_count, 25);
    assert_eq!(report.rows.len(), 25);
    // Every row carries finite metrics and a real name.
    for row in &report.rows {
        assert!(
            row.name.starts_with("polaris-siting-sweep["),
            "{}",
            row.name
        );
        assert!(row.scenario.operational_water_l.is_finite());
        assert!(row.scenario.operational_water_l > 0.0);
    }
    // Rows are not all identical — the axes actually move the answer.
    let first = &report.rows[0];
    assert!(report
        .rows
        .iter()
        .any(|r| r.scenario.operational_water_l != first.scenario.operational_water_l));
}

/// Every shipped run spec parses, validates, and evaluates.
#[test]
fn shipped_spec_library_evaluates() {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/scenarios exists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("spec reads");
        if name.starts_with("sweep_") {
            let sweep = SweepSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!sweep.axes.is_empty());
        } else {
            let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let outcome =
                thirstyflops::scenario::evaluate(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(outcome.scenario.operational_water_l > 0.0, "{name}");
        }
        seen += 1;
    }
    assert!(seen >= 9, "the spec library has ≥ 9 files, found {seen}");
}

/// The determinism contract end to end: `scenario run` and `scenario
/// sweep` emit byte-identical JSON at every thread count. The
/// simulation cache has no off switch; that it is invisible in the
/// bytes is `tests/simcache.rs`'s in-process oracle comparison, which
/// covers every shipped run spec.
#[test]
fn run_and_sweep_json_identical_across_threads_and_cache() {
    matrix::check(
        matrix::table_rows(&[
            "scenario run examples/scenarios/drought_grid.json --json",
            "scenario sweep examples/scenarios/sweep_siting.json --json",
        ]),
        &[],
    );
}

/// Library-level thread-count determinism: the same sweep evaluated
/// under a 1-worker and an 8-worker pool serializes identically.
#[test]
fn sweep_report_identical_across_pool_sizes() {
    let text = std::fs::read_to_string(spec_path("sweep_siting.json")).expect("spec ships");
    let sweep = SweepSpec::from_json(&text).expect("sweep parses");
    let reports: Vec<String> = [1usize, 8]
        .iter()
        .map(|&n| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool builds");
            let report = pool.install(|| evaluate_sweep(&sweep).expect("sweep evaluates"));
            serde_json::to_string(&report).expect("report renders")
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
}

/// CLI error paths: missing files, invalid specs, and sweep/run
/// mix-ups exit 2 with a message.
#[test]
fn cli_rejects_bad_specs_loudly() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
            .args(args)
            .output()
            .expect("binary runs");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, err) = run(&["scenario", "run", "/nonexistent/spec.json"]);
    assert_eq!(code, 2);
    assert!(err.contains("cannot read"), "{err}");
    let (code, err) = run(&["scenario", "run"]);
    assert_eq!(code, 2);
    assert!(err.contains("missing <file>"), "{err}");
    // A sweep spec through `run` points at the sweep command.
    let (code, err) = run(&["scenario", "run", &spec_path("sweep_siting.json")]);
    assert_eq!(code, 2);
    assert!(err.contains("sweep"), "{err}");
    // A run spec through `sweep` asks for axes.
    let (code, err) = run(&["scenario", "sweep", &spec_path("all_nuclear.json")]);
    assert_eq!(code, 2);
    assert!(err.contains("axes"), "{err}");
    // Unknown keys are hard errors end to end.
    let bad = std::env::temp_dir().join("thirstyflops_bad_spec.json");
    std::fs::write(&bad, r#"{"name": "x", "base": "polaris", "overides": {}}"#).unwrap();
    let (code, err) = run(&["scenario", "run", bad.to_str().unwrap()]);
    assert_eq!(code, 2);
    assert!(err.contains("overides"), "{err}");
}

/// Satellite: the expansion ceiling is enforced in BOTH layers. The CLI
/// (parser layer) exits 2 with the limit in the message, and a sweep
/// built in code — bypassing the parser — is still refused by
/// `evaluate_sweep` (evaluation layer).
#[test]
fn sweep_ceiling_is_enforced_at_parse_and_at_evaluation() {
    // Parser layer, through the CLI: 20^3 = 8000 > 4096, no top_n.
    let oversized = r#"{"name": "big", "base": "polaris", "axes": {
        "climate.wue_scale": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4,
                              1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3, 2.4],
        "pue": [1.05, 1.06, 1.07, 1.08, 1.09, 1.10, 1.11, 1.12, 1.13, 1.14,
                1.15, 1.16, 1.17, 1.18, 1.19, 1.20, 1.21, 1.22, 1.23, 1.24],
        "wsi.site": [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
                     0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.82, 0.84, 0.86, 0.88]
    }}"#;
    let path = std::env::temp_dir().join("thirstyflops_oversized_sweep.json");
    std::fs::write(&path, oversized).expect("spec writes");
    let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args(["scenario", "sweep", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "oversized sweep must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("8000"), "{err}");
    assert!(err.contains("4096"), "{err}");
    assert!(err.contains("top_n"), "the fix is named: {err}");

    // Evaluation layer, bypassing the parser: inflate a parsed axis in
    // code and hand the spec straight to evaluate_sweep.
    let text = std::fs::read_to_string(spec_path("sweep_siting.json")).expect("spec ships");
    let mut sweep = SweepSpec::from_json(&text).expect("parses");
    let clones: Vec<_> = std::iter::repeat(sweep.axes[0].values[0].clone())
        .take(2048)
        .collect();
    sweep.axes[0].values = clones;
    assert!(sweep.combination_count() > 4096);
    let err = evaluate_sweep(&sweep).expect_err("second layer must refuse");
    assert!(err.to_string().contains("4096"), "{err}");

    // With top_n the streaming ceiling applies instead — and is also
    // enforced at evaluation.
    sweep.top_n = Some(10);
    assert!(evaluate_sweep(&sweep).is_ok(), "10240 cells stream fine");
    let clones: Vec<_> = std::iter::repeat(sweep.axes[1].values[0].clone())
        .take(500_000)
        .collect();
    sweep.axes[1].values = clones;
    let err = evaluate_sweep(&sweep).expect_err("over the streaming ceiling");
    assert!(err.to_string().contains("1048576"), "{err}");
}

/// The HTTP twin of the CLI `--top` flag lives in the spec body; the
/// parser front door is shared, so `from_json_with_top`'s override and
/// the in-body field must agree.
#[test]
fn top_override_and_in_body_top_n_agree() {
    let text = std::fs::read_to_string(spec_path("sweep_siting.json")).expect("spec ships");
    let flagged = SweepSpec::from_json_with_top(&text, Some(4)).expect("parses");
    let mut in_body = SweepSpec::from_json(&text).expect("parses");
    in_body.top_n = Some(4);
    assert_eq!(flagged, in_body);
    let a = evaluate_sweep(&flagged).expect("evaluates");
    assert_eq!(a.rows.len(), 4);
    assert_eq!(a.rank_by.as_deref(), Some("operational_water_l"));
    // Bad rank metrics and zero top_n are parse errors with the menu.
    let with = |extra: &str| {
        let patched = text.replacen('{', &format!("{{{extra}",), 1);
        SweepSpec::from_json(&patched)
    };
    let err = with(r#""top_n": 3, "rank_by": "bogus","#).expect_err("unknown metric");
    assert!(err.to_string().contains("operational_water_l"), "{err}");
    let err = with(r#""top_n": 0,"#).expect_err("zero top_n");
    assert!(err.to_string().contains("at least 1"), "{err}");
    let err = with(r#""rank_by": "carbon_kg","#).expect_err("rank_by without top_n");
    assert!(err.to_string().contains("top_n"), "{err}");
}

/// The shipped 101,250-cell siting sweep: parses, streams under its
/// `top_n`, and the expansion arithmetic matches the axes. (Evaluation
/// of the full spec is a `tests/determinism.rs` row.)
#[test]
fn shipped_large_sweep_parses_and_counts_101250_cells() {
    let text = std::fs::read_to_string(spec_path("sweep_siting_large.json")).expect("spec ships");
    let sweep = SweepSpec::from_json(&text).expect("large sweep parses");
    assert_eq!(sweep.combination_count(), 101_250, "50 x 45 x 45");
    assert_eq!(sweep.top_n, Some(24));
    assert_eq!(sweep.rank_by.as_deref(), Some("scarcity_adjusted_water_l"));
    assert!(sweep.combination_count() <= sweep.ceiling());
    // Without its top_n the same spec would be over the plain ceiling.
    let mut capped = sweep.clone();
    capped.top_n = None;
    capped.rank_by = None;
    assert!(capped.combination_count() > thirstyflops::scenario::MAX_SCENARIOS);
    assert!(evaluate_sweep(&capped).is_err());
    // Spot-check the mixed-radix indexing the streaming path uses: the
    // last combination carries every axis's last value.
    let last = sweep
        .combination(sweep.combination_count() - 1)
        .expect("last combination resolves");
    assert!(last.name.contains("wue_scale=2.38"), "{}", last.name);
    assert!(last.name.contains("pue=1.5"), "{}", last.name);
}

/// The engine's headline physics, end to end through shipped specs:
/// drought cuts water but costs carbon; the nuclear what-if saves
/// carbon; reclaimed supply cuts the scarcity-adjusted footprint.
#[test]
fn shipped_specs_tell_the_papers_story() {
    let eval = |name: &str| {
        let text = std::fs::read_to_string(spec_path(name)).expect("spec ships");
        thirstyflops::scenario::evaluate(&ScenarioSpec::from_json(&text).expect("parses"))
            .expect("evaluates")
    };
    let drought = eval("drought_grid.json");
    assert!(drought.deltas.operational_water_pct < -10.0);
    assert!(drought.deltas.carbon_pct > 5.0);

    let nuclear = eval("all_nuclear.json");
    assert!(
        nuclear.deltas.carbon_pct < -80.0,
        "{}",
        nuclear.deltas.carbon_pct
    );

    let reclaimed = eval("reclaimed_supply.json");
    assert_eq!(reclaimed.deltas.operational_water_l, 0.0);
    assert!(reclaimed.deltas.scarcity_adjusted_water_pct < -10.0);
    assert!(reclaimed.deltas.water_cost_usd < 0.0);

    let upgrade = eval("gpu_upgrade_path.json");
    let lc = upgrade.scenario.lifecycle.expect("lifecycle view present");
    assert!(lc.upgrade_embodied_l > 0.0);
    assert!(lc.embodied_share > 0.0 && lc.embodied_share < 0.5);
}
