//! Concurrency tests for the shared ADSALA serving layer: N client
//! threads hammering one `AdsalaService` through `&self`, the
//! service-pool-vs-process-pool equivalence the runtime path relies on,
//! and mixed-routine/mixed-precision traffic through the generic `run`
//! entry point.

use std::collections::HashMap;
use std::sync::Arc;

use adsala::bundle::quick_test_bundle as quick_bundle;
use adsala::cache::DEFAULT_CACHE_CAPACITY;
use adsala::prelude::*;
use adsala_gemm::gemm::{gemm_with_stats, GemmCall};

type ShapeKey = (u64, u64, u64);

#[test]
fn service_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AdsalaService>();
    assert_send_sync::<Arc<ArtifactBundle>>();
}

/// The tentpole stress test: overlapping shape streams from many clients,
/// deterministic decisions, consistent counters, every decision inside
/// the candidate ladder.
#[test]
fn concurrent_clients_get_deterministic_in_ladder_decisions() {
    let bundle = quick_bundle().into_shared();
    let service =
        AdsalaService::with_config(Arc::clone(&bundle), ServiceConfig { pool_workers: 4 });
    let n_clients = 8u64;
    let calls_per_client = 200u64;

    // Each client walks a different rotation of the same shape ring, so
    // streams overlap heavily but interleave differently per thread.
    let shapes: Vec<ShapeKey> =
        (0..25u64).map(|i| (32 + 16 * (i % 5), 64 + 128 * (i % 7), 32 + 8 * (i % 11))).collect();

    let per_client: Vec<Vec<(ShapeKey, PlanDecision)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|client| {
                let service = &service;
                let shapes = &shapes;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for i in 0..calls_per_client {
                        let idx = ((i + client * 7) % shapes.len() as u64) as usize;
                        let (m, k, n) = shapes[idx];
                        seen.push((
                            (m, k, n),
                            service.select_for_capped(
                                OpShape::gemm(Precision::F32, m, k, n),
                                u32::MAX,
                            ),
                        ));
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });

    // Determinism: every thread that decided a shape got the same count,
    // and that count is what a fresh sweep of the shared bundle yields.
    let mut agreed: HashMap<ShapeKey, u32> = HashMap::new();
    for decisions in &per_client {
        for &((m, k, n), d) in decisions {
            let expected = *agreed.entry((m, k, n)).or_insert_with(|| {
                let shape = OpShape::gemm(Precision::F32, m, k, n);
                bundle.decide_op_capped(shape, u32::MAX).threads()
            });
            assert_eq!(d.threads(), expected, "non-deterministic decision for {m}x{k}x{n}");
            assert!(
                bundle.candidates().contains(&d.threads()),
                "decision {} outside the candidate ladder",
                d.threads()
            );
            assert!(d.predicted_runtime_s > 0.0);
        }
    }

    // Counter consistency: every select is exactly one cache lookup.
    let stats = service.stats().cache;
    let total_calls = n_clients * calls_per_client;
    assert_eq!(stats.lookups(), total_calls, "hits + misses must equal calls: {stats:?}");
    assert!(stats.hits > 0, "overlapping streams must produce memo hits");
    // Sweeps happen only on misses (racing misses may both sweep).
    assert!(service.stats().evaluations >= shapes.len() as u64);
    assert!(service.stats().evaluations <= stats.misses, "{stats:?}");
    assert!(stats.entries <= stats.capacity, "{stats:?}");
}

/// Adversarial shape streams cannot grow the memo past its bound.
#[test]
fn cache_stays_bounded_under_adversarial_stream() {
    let service =
        AdsalaService::with_config(quick_bundle().into_shared(), ServiceConfig { pool_workers: 1 });
    // Half as many fresh keys again as the memo holds, over four clients.
    let per_client = (DEFAULT_CACHE_CAPACITY as u64 * 3 / 2).div_ceil(4);
    std::thread::scope(|scope| {
        for client in 0..4u64 {
            let service = &service;
            scope.spawn(move || {
                for i in 0..per_client {
                    // Every key is fresh: a worst-case stream.
                    let v = client * per_client + i;
                    service.select_for_capped(
                        OpShape::gemm(Precision::F32, 32 + v, 64 + v, 32 + (v % 97)),
                        u32::MAX,
                    );
                }
            });
        }
    });
    let stats = service.stats().cache;
    assert!(stats.entries <= stats.capacity, "{stats:?}");
    assert_eq!(stats.capacity, DEFAULT_CACHE_CAPACITY as u64, "{stats:?}");
    assert!(stats.evictions > 0, "an adversarial stream must trigger evictions: {stats:?}");
    assert_eq!(stats.lookups(), 4 * per_client);
}

/// Concurrent `sgemm` calls through one shared service must all be
/// correct, and the service's pool must produce bitwise-identical output
/// to the process pool.
#[test]
fn concurrent_sgemm_matches_spawn_path_bitwise() {
    let service =
        AdsalaService::with_config(quick_bundle().into_shared(), ServiceConfig { pool_workers: 4 });
    let cases: Vec<(usize, usize, usize)> =
        vec![(33, 17, 29), (64, 64, 64), (96, 40, 72), (20, 128, 24)];

    std::thread::scope(|scope| {
        for &(m, k, n) in &cases {
            let service = &service;
            scope.spawn(move || {
                let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect();
                let b: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 * 0.25).collect();
                for _ in 0..3 {
                    let mut c_pooled = vec![1.0f32; m * n];
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.5, &a, k, &b, n, 0.5, &mut c_pooled, n)
                            .into();
                    let (decision, stats) = service
                        .run_with(&mut req, RunOptions::with_host_cap(4))
                        .expect("well-formed sgemm");
                    assert!(stats.exec.threads_used >= 1);

                    // Same thread request on the process pool.
                    let threads = decision.threads().clamp(1, 4) as usize;
                    let mut c_global = vec![1.0f32; m * n];
                    let call = GemmCall::new(m, n, k, threads);
                    gemm_with_stats(&call, 1.5, &a, k, &b, n, 0.5, &mut c_global, n);
                    assert_eq!(
                        c_pooled, c_global,
                        "the service's pool and the process pool diverged for {m}x{k}x{n}"
                    );
                }
            });
        }
    });
}

/// The acceptance stress test for the op-descriptor redesign: one
/// `AdsalaService` serving f32 GEMM, f64 GEMM, f64 SYRK, and f32 GEMV
/// concurrently through the same `run(..)` entry point, every result
/// bitwise-equal to the corresponding direct kernel call at the decided
/// thread count.
#[test]
fn mixed_routine_traffic_matches_direct_kernels_bitwise() {
    let service =
        AdsalaService::with_config(quick_bundle().into_shared(), ServiceConfig { pool_workers: 4 });
    let rounds = 3usize;
    let cap = 4u32;

    std::thread::scope(|scope| {
        // Client 1: f32 GEMM.
        let svc = &service;
        scope.spawn(move || {
            let (m, n, k) = (48usize, 40usize, 32usize);
            let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 * 0.25).collect();
            for _ in 0..rounds {
                let mut c = vec![1.0f32; m * n];
                let mut req: OpRequest<'_, f32> =
                    GemmArgs::untransposed(m, n, k, 1.5, &a, k, &b, n, 0.5, &mut c, n).into();
                let (d, stats) =
                    svc.run_with(&mut req, RunOptions::with_host_cap(cap)).expect("f32 gemm");
                assert_eq!((stats.routine, stats.precision), (Routine::Gemm, Precision::F32));
                let threads = d.threads().clamp(1, cap) as usize;
                let mut c_direct = vec![1.0f32; m * n];
                let call = GemmCall::new(m, n, k, threads);
                gemm_with_stats(&call, 1.5, &a, k, &b, n, 0.5, &mut c_direct, n);
                assert_eq!(c, c_direct, "f32 GEMM diverged from direct kernel");
            }
        });

        // Client 2: f64 GEMM.
        scope.spawn(move || {
            let (m, n, k) = (36usize, 52usize, 24usize);
            let a: Vec<f64> = (0..m * k).map(|i| (i % 9) as f64 - 4.0).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i % 7) as f64 * 0.5).collect();
            for _ in 0..rounds {
                let mut c = vec![2.0f64; m * n];
                let mut req: OpRequest<'_, f64> =
                    GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, -0.5, &mut c, n).into();
                let (d, stats) =
                    svc.run_with(&mut req, RunOptions::with_host_cap(cap)).expect("f64 gemm");
                assert_eq!((stats.routine, stats.precision), (Routine::Gemm, Precision::F64));
                let threads = d.threads().clamp(1, cap) as usize;
                let mut c_direct = vec![2.0f64; m * n];
                let call = GemmCall::new(m, n, k, threads);
                gemm_with_stats(&call, 1.0, &a, k, &b, n, -0.5, &mut c_direct, n);
                assert_eq!(c, c_direct, "f64 GEMM diverged from direct kernel");
            }
        });

        // Client 3: f64 SYRK.
        scope.spawn(move || {
            let (m, k) = (50usize, 20usize);
            let a: Vec<f64> = (0..m * k).map(|i| (i % 17) as f64 - 8.0).collect();
            for _ in 0..rounds {
                let mut c = vec![0.5f64; m * m];
                let mut req: OpRequest<'_, f64> =
                    SyrkArgs { m, k, alpha: 2.0, a: &a, lda: k, beta: 0.25, c: &mut c, ldc: m }
                        .into();
                let (d, stats) =
                    svc.run_with(&mut req, RunOptions::with_host_cap(cap)).expect("f64 syrk");
                assert_eq!((stats.routine, stats.precision), (Routine::Syrk, Precision::F64));
                let threads = d.threads().clamp(1, cap) as usize;
                let mut c_direct = vec![0.5f64; m * m];
                adsala_gemm::syrk_with_stats(m, k, 2.0, &a, k, 0.25, &mut c_direct, m, threads);
                assert_eq!(c, c_direct, "SYRK diverged from direct kernel");
            }
        });

        // Client 4: f32 GEMV.
        scope.spawn(move || {
            let (m, n) = (300usize, 80usize);
            let a: Vec<f32> = (0..m * n).map(|i| (i % 5) as f32 - 2.0).collect();
            let x: Vec<f32> = (0..n).map(|i| (i % 3) as f32 * 0.5).collect();
            for _ in 0..rounds {
                let mut y = vec![1.0f32; m];
                let mut req: OpRequest<'_, f32> =
                    GemvArgs { m, n, alpha: 1.0, a: &a, lda: n, x: &x, beta: 0.5, y: &mut y }
                        .into();
                let (d, stats) =
                    svc.run_with(&mut req, RunOptions::with_host_cap(cap)).expect("f32 gemv");
                assert_eq!((stats.routine, stats.precision), (Routine::Gemv, Precision::F32));
                let threads = d.threads().clamp(1, cap) as usize;
                let mut y_direct = vec![1.0f32; m];
                adsala_gemm::gemv_with_stats(m, n, 1.0, &a, n, &x, 0.5, &mut y_direct, threads);
                assert_eq!(y, y_direct, "GEMV diverged from direct kernel");
            }
        });
    });

    // Four distinct (routine, precision, shape) keys, each decided under
    // its caller's cap or, while other clients were in flight, under the
    // op's share of the pool: one memo entry per shape and cap, and every
    // cap is a rung.
    let stats = service.stats().cache;
    assert_eq!(stats.lookups(), 4 * rounds as u64);
    let rungs = service.candidates().len() as u64;
    assert!((4..=4 * rungs).contains(&stats.entries), "{stats:?}");
}

/// Malformed requests racing well-formed ones: the bad ones all error,
/// the good ones all succeed, and no serving thread panics.
#[test]
fn malformed_requests_error_cleanly_under_concurrency() {
    let service =
        AdsalaService::with_config(quick_bundle().into_shared(), ServiceConfig { pool_workers: 2 });
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let svc = &service;
            scope.spawn(move || {
                let (m, n, k) = (24usize, 24usize, 24usize);
                let a = vec![1.0f32; m * k];
                let b = vec![1.0f32; k * n];
                for round in 0..8usize {
                    if (client + round) % 2 == 0 {
                        let mut c = vec![0.0f32; m * n];
                        let mut req: OpRequest<'_, f32> =
                            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n)
                                .into();
                        svc.run(&mut req).expect("well-formed request must serve");
                    } else {
                        let mut c = vec![0.0f32; m]; // far too small
                        let mut req: OpRequest<'_, f32> =
                            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n)
                                .into();
                        match svc.run(&mut req) {
                            Err(AdsalaError::Shape(e)) => assert_eq!(e.routine, Routine::Gemm),
                            other => panic!("expected shape error, got {other:?}"),
                        }
                    }
                }
            });
        }
    });
}
