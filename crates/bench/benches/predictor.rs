//! Criterion benches for the end-to-end ADSALA runtime predictor:
//! full plan-selection sweeps (no memo) vs memoised decisions — quantifying
//! the §III-C memoisation the paper builds into the runtime workflow.

use adsala::install::{InstallConfig, Installation};
use adsala::{OpShape, Precision, ServiceConfig};
use adsala_machine::{MachineModel, SimTimer};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_selection(c: &mut Criterion) {
    let timer = SimTimer::new(MachineModel::gadi());
    // Decision serving only: a 1-worker pool avoids idle workers.
    let service = Installation::run(&timer, &InstallConfig::quick())
        .expect("quick install")
        .into_service_with(ServiceConfig { pool_workers: 1, ..ServiceConfig::default() });
    let bundle = service.bundle();
    let mut group = c.benchmark_group("predictor");

    group.bench_function("select_cold_96_candidates", |b| {
        let shape = OpShape::gemm(Precision::F32, 64, 2048, 64);
        b.iter(|| black_box(bundle.decide_op_capped(shape, u32::MAX)))
    });

    group.bench_function("select_memoised", |b| {
        service.select_threads(64, 2048, 64);
        b.iter(|| black_box(service.select_threads(64, 2048, 64)))
    });

    // Pre-warm a working set of shapes.
    let shapes: Vec<(u64, u64, u64)> = (0..32).map(|i| (64 + i * 8, 256, 64 + i * 4)).collect();
    for &(m, k, n) in &shapes {
        service.select_threads(m, k, n);
    }
    group.bench_function("select_full_cache_hit", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % shapes.len();
            let (m, k, n) = shapes[i];
            black_box(service.select_threads(m, k, n))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
