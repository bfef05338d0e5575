//! Cost of the online-adaptation loop on and around the serving hot
//! path. The feedback accounting runs on *every* served op, so it must
//! stay in the tens-of-nanoseconds range:
//!
//! * `online_overhead/reservoir_record` — one observation into the
//!   striped ring, at keep-all and 1-in-16 sampling rates.
//! * `online_overhead/drift_record` — one fold into the per-routine
//!   error recorder (sums, EWMA, trip wire).
//! * `online_overhead/observe` — the full per-op accounting the service
//!   performs (error recorder + reservoir).
//! * `online_overhead/memo_hit` — a memoised decision under the
//!   generation-tagged cache: the swap machinery's read-side cost.
//! * `online_overhead/hot_swap` — publishing a refreshed bundle and
//!   retiring the memo (the whole write-side of a zero-downtime swap).

use adsala::bundle::quick_test_bundle;
use adsala::online::{DriftConfig, DriftDetector, Observation, ObservationReservoir};
use adsala::{AdsalaService, ServiceConfig};
use adsala_gemm::dispatch::{OpShape, Precision, Routine};
use adsala_gemm::plan::ExecutionPlan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn observation(i: u64) -> Observation {
    Observation {
        shape: OpShape::gemm(Precision::F32, 64 + (i % 7), 128, 64),
        plan: ExecutionPlan::with_threads(1 + (i % 4) as u32),
        predicted_runtime_s: 1e-3,
        wall_ns: 1_000_000 + i,
    }
}

fn bench_reservoir_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_overhead/reservoir_record");
    for &sample_every in &[1u32, 16] {
        let reservoir = ObservationReservoir::new(8, 4096, sample_every);
        let mut i = 0u64;
        group.bench_with_input(
            BenchmarkId::new("sample_every", sample_every),
            &sample_every,
            |bench, _| {
                bench.iter(|| {
                    i += 1;
                    reservoir.record(black_box(observation(i)))
                });
            },
        );
    }
    group.finish();
}

fn bench_drift_record(c: &mut Criterion) {
    let detector = DriftDetector::new(DriftConfig::default());
    let mut i = 0u64;
    c.bench_function("online_overhead/drift_record", |bench| {
        bench.iter(|| {
            i += 1;
            detector.record(black_box(Routine::Gemm), 1e-3, 1_000_000 + (i % 64));
        });
    });
}

fn bench_observe_and_swap(c: &mut Criterion) {
    let service = AdsalaService::with_config(
        quick_test_bundle().into_shared(),
        ServiceConfig { pool_workers: 1, ..ServiceConfig::default() },
    );
    let shape = OpShape::gemm(Precision::F32, 96, 256, 64);
    let plan = ExecutionPlan::with_threads(2);

    let mut i = 0u64;
    c.bench_function("online_overhead/observe", |bench| {
        bench.iter(|| {
            i += 1;
            service.observe(black_box(shape), &plan, 1e-3, 1_000_000 + (i % 64));
        });
    });

    // Read side under the generation tag: the steady-state decision path.
    service.select_for_capped(shape, u32::MAX);
    c.bench_function("online_overhead/memo_hit", |bench| {
        bench.iter(|| black_box(service.select_for_capped(black_box(shape), u32::MAX)));
    });

    // Write side: one full hot-swap (bundle publish + generation bump +
    // meter/detector reset), with the replacement built outside the loop.
    let refreshed = service.bundle();
    c.bench_function("online_overhead/hot_swap", |bench| {
        bench.iter(|| service.swap_bundle(std::sync::Arc::clone(black_box(&refreshed))));
    });
}

criterion_group!(benches, bench_reservoir_record, bench_drift_record, bench_observe_and_swap);
criterion_main!(benches);
