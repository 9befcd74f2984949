//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. **Accounting granularity** — operational water from hourly series
//!    vs monthly means vs annual means (the covariance term the paper's
//!    hourly accounting captures);
//! 2. **Scheduler policy** — EASY backfill vs plain FCFS on the same
//!    trace;
//! 3. **Scarcity form** — split direct/indirect WSI vs uniform Eq. 9.
//!
//! Criterion measures the cost of each alternative; the accompanying
//! integration tests (`tests/ablations.rs` at the workspace root) assert
//! the accuracy deltas.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use thirstyflops_bench::small_system_year;
use thirstyflops_core::{FootprintModel, OperationalBreakdown, ScarcityAdjustment, WaterIntensity};
use thirstyflops_units::{KilowattHours, LitersPerKilowattHour, WaterScarcityIndex};
use thirstyflops_workload::{ClusterSim, TraceConfig, TraceGenerator};

fn bench_accounting_granularity(c: &mut Criterion) {
    let year = small_system_year();
    let mut group = c.benchmark_group("accounting_granularity");
    // The runtime's hourly path: one K-lane kernel lane over the
    // memoized series of the same year (`small_system_year`'s seed).
    let model = FootprintModel::from_spec(year.spec.clone());
    group.bench_function("hourly", |b| b.iter(|| black_box(model.annual_report(77))));
    group.bench_function("monthly", |b| {
        b.iter(|| {
            let e = year.energy.monthly_sum();
            let wue = year.wue.monthly_mean();
            let ewf = year.ewf.monthly_mean();
            let mut direct = 0.0;
            let mut indirect = 0.0;
            for m in thirstyflops_timeseries::Month::ALL {
                direct += e.get(m) * wue.get(m);
                indirect += e.get(m) * year.spec.pue.value() * ewf.get(m);
            }
            black_box((direct, indirect))
        })
    });
    group.bench_function("annual", |b| {
        b.iter(|| {
            black_box(OperationalBreakdown::from_totals(
                KilowattHours::new(year.energy.total()),
                LitersPerKilowattHour::new(year.wue.mean()),
                year.spec.pue,
                LitersPerKilowattHour::new(year.ewf.mean()),
            ))
        })
    });
    group.finish();
}

fn bench_backfill_vs_fcfs(c: &mut Criterion) {
    let cfg = TraceConfig {
        cluster_nodes: 512,
        target_utilization: 0.8,
        mean_duration_hours: 6.0,
        mean_width_fraction: 0.04,
        seed: 17,
    };
    let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
    let mut group = c.benchmark_group("scheduler_policy");
    group.sample_size(10);
    group.bench_function("easy_backfill", |b| {
        b.iter(|| black_box(ClusterSim::new(512).unwrap().simulate_year(&jobs)))
    });
    group.bench_function("plain_fcfs", |b| {
        b.iter(|| {
            black_box(
                ClusterSim::with_backfill(512, false)
                    .unwrap()
                    .simulate_year(&jobs),
            )
        })
    });
    group.finish();
}

fn bench_scarcity_form(c: &mut Criterion) {
    let wi = WaterIntensity::new(
        LitersPerKilowattHour::new(3.5),
        thirstyflops_units::Pue::new(1.65).unwrap(),
        LitersPerKilowattHour::new(1.9),
    );
    let split = ScarcityAdjustment {
        direct_wsi: WaterScarcityIndex::new(0.55).unwrap(),
        indirect_wsi: WaterScarcityIndex::new(0.51).unwrap(),
    };
    let uniform = WaterScarcityIndex::new(0.55).unwrap();
    let mut group = c.benchmark_group("scarcity_form");
    group.bench_function("split_wsi", |b| {
        b.iter(|| black_box(split.adjust(black_box(wi))))
    });
    group.bench_function("uniform_wsi", |b| {
        b.iter(|| black_box(ScarcityAdjustment::adjust_uniform(black_box(wi), uniform)))
    });
    group.finish();
}

fn bench_amr_vs_uniform(c: &mut Criterion) {
    use thirstyflops_workload::miniamr::{MiniAmr, MiniAmrConfig};
    let cfg = MiniAmrConfig {
        base_grid: 2,
        block_cells: 8,
        max_level: 2,
        steps: 6,
        regrid_every: 3,
        sphere_radius: 0.2,
        sphere_orbits: 0.5,
        alpha: 0.1,
    };
    let mut group = c.benchmark_group("amr_vs_uniform");
    group.sample_size(10);
    group.bench_function("adaptive", |b| {
        b.iter(|| black_box(MiniAmr::new(cfg.clone()).unwrap().run()))
    });
    group.bench_function("uniform", |b| {
        b.iter(|| black_box(MiniAmr::new_uniform(cfg.clone()).unwrap().run()))
    });
    group.finish();
}

criterion_group!(
    ablations,
    bench_accounting_granularity,
    bench_backfill_vs_fcfs,
    bench_scarcity_form,
    bench_amr_vs_uniform
);
criterion_main!(ablations);
