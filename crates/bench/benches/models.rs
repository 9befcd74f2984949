//! Core model evaluation throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use thirstyflops_bench::small_system_year;
use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::withdrawal::{withdrawal_report, WithdrawalParams};
use thirstyflops_core::{EmbodiedBreakdown, RatioGrid, ScarcityAdjustment, WaterIntensity};
use thirstyflops_units::{Fraction, Liters, LitersPerKilowattHour, Pue, WaterScarcityIndex};

fn bench_embodied(c: &mut Criterion) {
    let specs: Vec<SystemSpec> = SystemId::ALL
        .iter()
        .map(|&id| SystemSpec::reference(id))
        .collect();
    c.bench_function("embodied_breakdown_6_systems", |b| {
        b.iter(|| {
            for spec in &specs {
                black_box(EmbodiedBreakdown::for_system(spec));
            }
        })
    });
}

fn bench_intensity_and_scarcity(c: &mut Criterion) {
    let year = small_system_year();
    c.bench_function("hourly_water_intensity_year", |b| {
        b.iter(|| black_box(year.water_intensity()))
    });
    let wi = WaterIntensity::new(
        LitersPerKilowattHour::new(3.5),
        Pue::new(1.65).unwrap(),
        LitersPerKilowattHour::new(1.9),
    );
    let adj = ScarcityAdjustment::uniform(WaterScarcityIndex::new(0.55).unwrap());
    c.bench_function("scarcity_adjust_point", |b| {
        b.iter(|| black_box(adj.adjust(black_box(wi))))
    });
}

fn bench_ratio_grid(c: &mut Criterion) {
    c.bench_function("fig04_ratio_grid_64x64", |b| {
        b.iter(|| black_box(RatioGrid::sweep(Liters::new(5e7), Liters::new(1e9), 5.0, 64).unwrap()))
    });
}

fn bench_withdrawal(c: &mut Criterion) {
    let params = WithdrawalParams {
        actual_discharge: Liters::new(2e8),
        outfall_factor: 1.0,
        pollutant_factors: vec![1.08, 1.03],
        reuse_rate: Fraction::new(0.3).unwrap(),
        potable_fraction: Fraction::new(0.7).unwrap(),
        s_potable: 0.6,
        s_non_potable: 0.25,
    };
    c.bench_function("withdrawal_report", |b| {
        b.iter(|| black_box(withdrawal_report(Liters::new(1e8), &params).unwrap()))
    });
}

criterion_group! {
    name = models;
    config = Criterion::default().sample_size(20);
    targets =
        bench_embodied, bench_intensity_and_scarcity, bench_ratio_grid, bench_withdrawal
}
criterion_main!(models);
