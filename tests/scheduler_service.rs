//! Integration tests for the admission-controlled scheduler: many client
//! threads submitting mixed-shape traffic through one `ServiceScheduler`,
//! with every result compared bitwise against an unscheduled serial
//! execution (per-tile FLOP order is grid-invariant, so whatever thread
//! count an op runs at must reproduce the 1-thread bits).

use std::sync::Arc;

use adsala::bundle::quick_test_bundle as quick_bundle;
use adsala::prelude::*;
use adsala_gemm::gemm::{gemm_with_stats, GemmCall};

fn scheduler(workers: usize, cfg: SchedulerConfig) -> ServiceScheduler {
    let service = Arc::new(AdsalaService::with_config(
        quick_bundle().into_shared(),
        ServiceConfig { pool_workers: workers, ..ServiceConfig::default() },
    ));
    ServiceScheduler::with_config(service, cfg)
}

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 350.0
        })
        .collect()
}

#[test]
fn scheduler_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServiceScheduler>();
    assert_send_sync::<SchedulerStats>();
}

/// The headline stress test: 8 clients, overlapping mixed-shape streams,
/// every scheduled result bitwise-identical to the unscheduled serial
/// (1-thread, inline on the caller) execution of the same op, counters
/// consistent, and no op running wider than the budget.
#[test]
fn mixed_shape_stress_matches_unscheduled_serial_bitwise() {
    let sched = Arc::new(scheduler(4, SchedulerConfig::default()));
    let clients = 8usize;
    let reps = 6usize;
    let shapes: [(usize, usize, usize); 6] =
        [(40, 48, 32), (64, 64, 64), (33, 29, 17), (96, 72, 40), (20, 24, 128), (56, 40, 24)];

    // Serial references first: the unscheduled baseline each scheduled
    // result must reproduce bit for bit.
    struct Case {
        m: usize,
        n: usize,
        k: usize,
        a: Vec<f32>,
        b: Vec<f32>,
        c_ref: Vec<f32>,
    }
    let cases: Vec<Vec<Case>> = (0..clients)
        .map(|client| {
            (0..reps)
                .map(|rep| {
                    let (m, n, k) = shapes[(client + rep) % shapes.len()];
                    let a = fill(m * k, (client * 100 + rep) as u64 + 1);
                    let b = fill(k * n, (client * 100 + rep) as u64 + 51);
                    let mut c_ref = vec![1.0f32; m * n];
                    let call = GemmCall::new(m, n, k, 1);
                    gemm_with_stats(&call, 1.5, &a, k, &b, n, 0.5, &mut c_ref, n);
                    Case { m, n, k, a, b, c_ref }
                })
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for client_cases in &cases {
            let sched = Arc::clone(&sched);
            scope.spawn(move || {
                for case in client_cases {
                    let (m, n, k) = (case.m, case.n, case.k);
                    let mut c = vec![1.0f32; m * n];
                    let mut req: OpRequest<'_, f32> = GemmArgs::untransposed(
                        m, n, k, 1.5, &case.a, k, &case.b, n, 0.5, &mut c, n,
                    )
                    .into();
                    let run = sched.submit(&mut req).expect("schedule sgemm");
                    assert!(run.plan.threads as usize <= sched.thread_budget());
                    assert_eq!(
                        c, case.c_ref,
                        "scheduled {m}x{k}x{n} diverged from unscheduled serial execution"
                    );
                }
            });
        }
    });

    let stats = sched.stats();
    assert_eq!(stats.submitted, (clients * reps) as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.queue_depth, 0, "{stats:?}");
    assert_eq!(stats.waves, stats.submitted, "one admission per op: {stats:?}");
    assert!(stats.measured_makespan_s > 0.0);
}

/// Mixed precisions share one queue: an f32 and an f64 stream served
/// concurrently, each bitwise-equal to its direct 1-thread kernel.
#[test]
fn mixed_precision_streams_serve_concurrently() {
    let sched = Arc::new(scheduler(4, SchedulerConfig::default()));
    std::thread::scope(|scope| {
        let s32 = Arc::clone(&sched);
        scope.spawn(move || {
            let (m, n, k) = (48usize, 40usize, 32usize);
            let a = fill(m * k, 11);
            let b = fill(k * n, 12);
            let mut c_ref = vec![1.0f32; m * n];
            gemm_with_stats(&GemmCall::new(m, n, k, 1), 1.5, &a, k, &b, n, 0.5, &mut c_ref, n);
            for _ in 0..6 {
                let mut c = vec![1.0f32; m * n];
                let mut req: OpRequest<'_, f32> =
                    GemmArgs::untransposed(m, n, k, 1.5, &a, k, &b, n, 0.5, &mut c, n).into();
                let run = s32.submit(&mut req).expect("f32 gemm");
                assert_eq!(
                    (run.stats.routine, run.stats.precision),
                    (Routine::Gemm, Precision::F32)
                );
                assert_eq!(c, c_ref, "f32 stream diverged");
            }
        });
        let s64 = Arc::clone(&sched);
        scope.spawn(move || {
            let (m, n, k) = (36usize, 52usize, 24usize);
            let a: Vec<f64> = (0..m * k).map(|i| (i % 9) as f64 - 4.0).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i % 7) as f64 * 0.5).collect();
            let mut c_ref = vec![2.0f64; m * n];
            gemm_with_stats(&GemmCall::new(m, n, k, 1), 1.0, &a, k, &b, n, -0.5, &mut c_ref, n);
            for _ in 0..6 {
                let mut c = vec![2.0f64; m * n];
                let mut req: OpRequest<'_, f64> =
                    GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, -0.5, &mut c, n).into();
                let run = s64.submit(&mut req).expect("f64 gemm");
                assert_eq!(
                    (run.stats.routine, run.stats.precision),
                    (Routine::Gemm, Precision::F64)
                );
                assert_eq!(c, c_ref, "f64 stream diverged");
            }
        });
    });
    let stats = sched.stats();
    assert_eq!(stats.completed, 12);
}

/// Strict-FIFO fairness: a flood of heavy ops from three clients cannot
/// starve a fourth client's small ops — the test completing (all 48
/// submits returning) is the guarantee; a starved queue would hang.
#[test]
fn heavy_flood_does_not_starve_small_ops() {
    let sched = Arc::new(scheduler(4, SchedulerConfig::default()));
    let reps = 12usize;
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let sched = Arc::clone(&sched);
            scope.spawn(move || {
                let (m, n, k) = (192usize, 192usize, 96usize);
                let a = fill(m * k, 500 + t);
                let b = fill(k * n, 600 + t);
                let mut c = vec![0.0f32; m * n];
                for _ in 0..reps {
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                    sched.submit(&mut req).expect("heavy op");
                }
            });
        }
        let sched2 = Arc::clone(&sched);
        scope.spawn(move || {
            // Give the flood a head start so the small ops genuinely queue
            // behind heavy traffic (ordering aid only, not a correctness
            // precondition).
            std::thread::sleep(std::time::Duration::from_millis(10));
            let (m, n, k) = (24usize, 24usize, 16usize);
            let a = fill(m * k, 700);
            let b = fill(k * n, 701);
            let mut c = vec![0.0f32; m * n];
            for _ in 0..reps {
                let mut req: OpRequest<'_, f32> =
                    GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                sched2.submit(&mut req).expect("small op must not starve");
            }
        });
    });
    let stats = sched.stats();
    assert_eq!(stats.completed, (4 * reps) as u64);
    assert_eq!(stats.queue_depth, 0);
}

/// Each op runs under the smaller of its host cap and the thread budget,
/// also while uncapped traffic is served beside it.
#[test]
fn host_cap_bounds_joint_share_under_concurrency() {
    let sched = Arc::new(scheduler(4, SchedulerConfig::default()));
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let sched = Arc::clone(&sched);
            scope.spawn(move || {
                let (m, n, k) = (128usize, 128usize, 64usize);
                let a = fill(m * k, 20 + t);
                let b = fill(k * n, 30 + t);
                let mut c = vec![0.0f32; m * n];
                for _ in 0..6 {
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                    sched.submit(&mut req).expect("uncapped gemm");
                }
            });
        }
        let capped = Arc::clone(&sched);
        let bound = sched.thread_budget().min(2) as u32;
        scope.spawn(move || {
            let (m, n, k) = (256usize, 256usize, 32usize);
            let a = fill(m * k, 40);
            let b = fill(k * n, 41);
            let mut c = vec![0.0f32; m * n];
            for _ in 0..6 {
                let mut req: OpRequest<'_, f32> =
                    GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                let run = capped
                    .submit_with(&mut req, RunOptions::with_host_cap(2))
                    .expect("capped gemm");
                assert!(run.plan.threads <= bound, "{run:?}");
                assert!(run.stats.exec.threads_used as u32 <= bound, "{run:?}");
            }
        });
    });
    let stats = sched.stats();
    assert_eq!(stats.completed, 18);
}

/// A scheduled request's decision lives in the service's memo: its sweep
/// is an `evaluation`, its replay a cache hit, and `clear_cache` /
/// `swap_bundle` retire it like any other decision.
#[test]
fn scheduled_decisions_live_in_the_service_memo() {
    let sched = scheduler(2, SchedulerConfig::default());
    let (m, n, k) = (48usize, 40usize, 24usize);
    let (a, b) = (fill(m * k, 1), fill(k * n, 2));
    let submit = || {
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        sched.submit(&mut req).expect("scheduled gemm");
        sched.service().stats()
    };

    let first = submit();
    assert_eq!(first.evaluations, 1, "a scheduled sweep must be counted");
    assert_eq!((first.cache.hits, first.cache.misses), (0, 1));

    let second = submit();
    assert_eq!(second.evaluations, 1, "a repeated shape must replay its decision");
    assert_eq!((second.cache.hits, second.cache.misses), (1, 1));

    sched.service().clear_cache();
    assert_eq!(submit().evaluations, 2, "clear_cache must retire scheduled decisions too");

    let service = sched.service();
    let generation =
        service.swap_bundle(service.bundle().refreshed(service.bundle().models.clone()).into());
    let swapped = submit();
    assert_eq!(swapped.evaluations, 3, "a swap must retire scheduled decisions");
    assert_eq!((swapped.generation, swapped.cache.generation), (generation, generation));
}
