//! Criterion benches for the concurrent serving layer: shared-service
//! decision throughput under client parallelism, and pooled `sgemm`
//! dispatch.
//!
//! The interesting comparisons:
//! * `select_shared_hot` vs the single-threaded `predictor` bench's memo
//!   numbers — the price of the striped cache over the `&mut self` memo;
//! * `clients/N` scaling — decision throughput as N client threads
//!   hammer one service with overlapping shape streams;
//! * `sgemm_service_pooled` — the end-to-end serving path (decision +
//!   pooled execution), no per-call OS-thread spawn.

use adsala::install::{InstallConfig, Installation};
use adsala::{AdsalaService, GemmArgs, OpRequest, OpShape, Precision, RunOptions, ServiceConfig};
use adsala_machine::{MachineModel, SimTimer};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn trained_service(pool_workers: usize) -> AdsalaService {
    let timer = SimTimer::new(MachineModel::gadi());
    Installation::run(&timer, &InstallConfig::quick())
        .expect("quick install")
        .into_service_with(ServiceConfig { pool_workers, ..ServiceConfig::default() })
}

fn bench_shared_selection(c: &mut Criterion) {
    let service = trained_service(2);
    let mut group = c.benchmark_group("service");

    group.bench_function("select_shared_hot", |b| {
        let shape = OpShape::gemm(Precision::F32, 64, 2048, 64);
        service.select_for_capped(shape, u32::MAX);
        b.iter(|| black_box(service.select_for_capped(shape, u32::MAX)))
    });

    // A ring of shapes larger than any single shard's fast path, all
    // resident: the striped-map lookup cost.
    let shapes: Vec<OpShape> =
        (0..64).map(|i| OpShape::gemm(Precision::F32, 64 + i * 4, 256, 64 + i * 2)).collect();
    for &shape in &shapes {
        service.select_for_capped(shape, u32::MAX);
    }
    group.bench_function("select_shared_resident_ring", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % shapes.len();
            black_box(service.select_for_capped(shapes[i], u32::MAX))
        })
    });
    group.finish();
}

fn bench_client_scaling(c: &mut Criterion) {
    let service = trained_service(2);
    let mut group = c.benchmark_group("service/clients");
    group.sample_size(10);
    let shapes: Vec<OpShape> =
        (0..32).map(|i| OpShape::gemm(Precision::F32, 32 + i * 8, 128, 32 + i * 4)).collect();
    for &shape in &shapes {
        service.select_for_capped(shape, u32::MAX);
    }
    for &clients in &[1usize, 2, 4, 8] {
        group.bench_function(format!("{clients}"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..clients {
                        let service = &service;
                        let shapes = &shapes;
                        scope.spawn(move || {
                            for i in 0..256usize {
                                let shape = shapes[(i + t * 5) % shapes.len()];
                                black_box(service.select_for_capped(shape, u32::MAX));
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_service_sgemm(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4);
    let service = trained_service(threads);
    let mut group = c.benchmark_group("service/sgemm");
    group.sample_size(20);
    let (m, k, n) = (128usize, 128usize, 128usize);
    let a = vec![1.0f32; m * k];
    let b_mat = vec![0.5f32; k * n];
    let mut c_out = vec![0.0f32; m * n];
    group.bench_function("sgemm_service_pooled_128", |bench| {
        bench.iter(|| {
            let mut req: OpRequest<'_, f32> =
                GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b_mat, n, 0.0, &mut c_out, n).into();
            black_box(
                service
                    .run_with(&mut req, RunOptions::with_host_cap(threads as u32))
                    .expect("well-formed sgemm"),
            )
        })
    });
    group.finish();
}

/// The abstraction tax of the op-descriptor path: `service.run(GemmArgs)`
/// (validate + memoised decision + dispatch) vs the direct
/// `gemm_with_stats_pooled` call at a fixed thread count. The difference
/// is the full per-call serving overhead the redesign added; it must stay
/// in the noise next to the kernel time.
fn bench_routine_dispatch(c: &mut Criterion) {
    use adsala::prelude::*;
    use adsala_gemm::gemm::{gemm_with_stats_pooled, GemmCall};
    use adsala_gemm::ThreadPool;

    let threads = 2usize;
    let service = trained_service(threads);
    let mut group = c.benchmark_group("service/routine_dispatch");
    group.sample_size(20);
    let (m, k, n) = (96usize, 96usize, 96usize);
    let a = vec![1.0f32; m * k];
    let b_mat = vec![0.5f32; k * n];
    let mut c_out = vec![0.0f32; m * n];

    // Baseline: the raw pooled kernel, no decision, no validation — at
    // the *same* thread count the descriptor path will execute with, so
    // the delta between the two benches is pure dispatch overhead.
    let decided = service
        .select_for_capped(OpShape::gemm(Precision::F32, m as u64, k as u64, n as u64), u32::MAX)
        .threads()
        .clamp(1, threads as u32) as usize;
    let pool = ThreadPool::new(threads);
    let call = GemmCall::new(m, n, k, decided);
    group.bench_function("direct_pooled_96", |bench| {
        bench.iter(|| {
            gemm_with_stats_pooled(
                &pool,
                &call,
                1.0,
                &a,
                k,
                &b_mat,
                n,
                0.0,
                black_box(&mut c_out),
                n,
            )
        })
    });

    // Descriptor path, hot memo: what a steady-state server pays.
    group.bench_function("descriptor_gemm_96", |bench| {
        bench.iter(|| {
            let mut req: OpRequest<'_, f32> = GemmArgs::untransposed(
                m,
                n,
                k,
                1.0,
                &a,
                k,
                &b_mat,
                n,
                0.0,
                black_box(&mut c_out),
                n,
            )
            .into();
            service
                .run_with(&mut req, RunOptions::with_host_cap(threads as u32))
                .expect("well-formed request")
        })
    });

    // Descriptor path for the other routines, hot memo.
    let mut c_syrk = vec![0.0f32; m * m];
    group.bench_function("descriptor_syrk_96", |bench| {
        bench.iter(|| {
            let mut req: OpRequest<'_, f32> = SyrkArgs {
                m,
                k,
                alpha: 1.0,
                a: &a,
                lda: k,
                beta: 0.0,
                c: black_box(&mut c_syrk),
                ldc: m,
            }
            .into();
            service
                .run_with(&mut req, RunOptions::with_host_cap(threads as u32))
                .expect("well-formed request")
        })
    });
    let x = vec![1.0f32; k];
    let mut y = vec![0.0f32; m];
    group.bench_function("descriptor_gemv_96", |bench| {
        bench.iter(|| {
            let mut req: OpRequest<'_, f32> = GemvArgs {
                m,
                n: k,
                alpha: 1.0,
                a: &a,
                lda: k,
                x: &x,
                beta: 0.0,
                y: black_box(&mut y),
            }
            .into();
            service
                .run_with(&mut req, RunOptions::with_host_cap(threads as u32))
                .expect("well-formed request")
        })
    });
    group.finish();
}

/// The admission gate's cost: 8 clients of same-shape shared-`B` traffic
/// calling `service.run` independently vs the same traffic through
/// `ServiceScheduler::submit` (admission gate → `run_with` under the
/// thread budget).
fn bench_scheduled_vs_unscheduled(c: &mut Criterion) {
    use adsala::prelude::*;
    use std::sync::Arc;

    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(4);
    let timer = SimTimer::new(MachineModel::gadi());
    let bundle = Installation::run(&timer, &InstallConfig::quick())
        .expect("quick install")
        .into_bundle()
        .into_shared();
    let clients = 8usize;
    let reps = 4usize;
    let (m, k, n) = (192usize, 128usize, 160usize);
    let a_mats: Vec<Vec<f32>> =
        (0..clients).map(|t| vec![(t as f32 + 1.0) * 0.25; m * k]).collect();
    let b_mat = vec![0.5f32; k * n];

    let mut group = c.benchmark_group("service/scheduler");
    group.sample_size(10);

    let service = AdsalaService::with_config(
        Arc::clone(&bundle),
        ServiceConfig { pool_workers: workers, ..ServiceConfig::default() },
    );
    group.bench_function("independent_clients_8", |bench| {
        bench.iter(|| {
            std::thread::scope(|scope| {
                for a in &a_mats {
                    let (service, b_mat) = (&service, &b_mat);
                    scope.spawn(move || {
                        let mut c_out = vec![0.0f32; m * n];
                        for _ in 0..reps {
                            let mut req: OpRequest<'_, f32> = GemmArgs::untransposed(
                                m,
                                n,
                                k,
                                1.0,
                                a,
                                k,
                                b_mat,
                                n,
                                0.0,
                                black_box(&mut c_out),
                                n,
                            )
                            .into();
                            service.run(&mut req).expect("serve sgemm");
                        }
                    });
                }
            })
        })
    });

    let sched = ServiceScheduler::with_config(
        Arc::new(AdsalaService::with_config(
            bundle,
            ServiceConfig { pool_workers: workers, ..ServiceConfig::default() },
        )),
        SchedulerConfig::default(),
    );
    group.bench_function("scheduled_clients_8", |bench| {
        bench.iter(|| {
            std::thread::scope(|scope| {
                for a in &a_mats {
                    let (sched, b_mat) = (&sched, &b_mat);
                    scope.spawn(move || {
                        let mut c_out = vec![0.0f32; m * n];
                        for _ in 0..reps {
                            let mut req: OpRequest<'_, f32> = GemmArgs::untransposed(
                                m,
                                n,
                                k,
                                1.0,
                                a,
                                k,
                                b_mat,
                                n,
                                0.0,
                                black_box(&mut c_out),
                                n,
                            )
                            .into();
                            sched.submit(&mut req).expect("schedule sgemm");
                        }
                    });
                }
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shared_selection,
    bench_client_scaling,
    bench_service_sgemm,
    bench_routine_dispatch,
    bench_scheduled_vs_unscheduled
);
criterion_main!(benches);
