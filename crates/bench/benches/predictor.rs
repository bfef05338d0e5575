//! Criterion benches for the end-to-end ADSALA runtime predictor:
//! full plan-selection sweeps (no memo) per grid flavour — the paper's
//! `t_eval` — vs memoised decisions, quantifying the §III-C memoisation the
//! paper builds into the runtime workflow.

use adsala::install::{InstallConfig, Installation};
use adsala::{GatherConfig, OpShape, Precision, ServiceConfig};
use adsala_gemm::plan::PlanGrid;
use adsala_machine::{MachineModel, SimTimer};
use adsala_ml::ModelKind;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// One uncached decision per grid flavour: what a cache miss pays for the
/// ladder the paper sweeps, the v3 plan grid and the widened algorithm
/// grid (48 and 54 points).
fn bench_sweep(c: &mut Criterion) {
    let timer = SimTimer::new(MachineModel::gadi());
    let mut group = c.benchmark_group("predictor/sweep");
    for (name, grid) in [
        ("threads_only_96", None),
        ("full", Some(PlanGrid::full(vec![1, 4, 16, 96]))),
        ("widened", Some(PlanGrid::widened(vec![1, 2, 4], 384))),
    ] {
        let quick = InstallConfig::quick();
        let config = InstallConfig {
            gather: GatherConfig { n_shapes: 60, reps: 2, grid, ..quick.gather },
            families: vec![ModelKind::XgBoost],
            ..quick
        };
        let bundle = Installation::run(&timer, &config).expect("quick install").into_bundle();
        let mut i = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % 64;
                let shape = OpShape::gemm(Precision::F32, 64 + i, 2048, 64);
                black_box(bundle.decide_op_capped(black_box(shape), u32::MAX))
            })
        });
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let timer = SimTimer::new(MachineModel::gadi());
    // Decision serving only: a 1-worker pool avoids idle workers.
    let service = Installation::run(&timer, &InstallConfig::quick())
        .expect("quick install")
        .into_service_with(ServiceConfig { pool_workers: 1, ..ServiceConfig::default() });
    let mut group = c.benchmark_group("predictor");

    group.bench_function("select_memoised", |b| {
        let shape = OpShape::gemm(Precision::F32, 64, 2048, 64);
        service.select_for_capped(shape, u32::MAX);
        b.iter(|| black_box(service.select_for_capped(shape, u32::MAX)))
    });

    // Pre-warm a working set of shapes.
    let shapes: Vec<OpShape> =
        (0..32).map(|i| OpShape::gemm(Precision::F32, 64 + i * 8, 256, 64 + i * 4)).collect();
    for &shape in &shapes {
        service.select_for_capped(shape, u32::MAX);
    }
    group.bench_function("select_full_cache_hit", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % shapes.len();
            black_box(service.select_for_capped(shapes[i], u32::MAX))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sweep, bench_selection);
criterion_main!(benches);
