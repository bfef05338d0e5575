//! The online-layer acceptance tests: a hot-swap landing in the middle
//! of an 8-client flood without torn reads or blocked submits, and the
//! end-to-end drift story — accurate service drifts under an injected
//! slowdown, the detector trips, conservative fallbacks are served, and
//! a swapped-in bundle (the path a reinstall takes) resets the detector
//! so model decisions memoise again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use adsala::bundle::quick_test_bundle as quick_bundle;
use adsala::prelude::*;
use adsala_gemm::gemm::{gemm_with_stats, GemmCall};
use adsala_repro::adsala_machine::noise::{combine, drift_slowdown, lognormal_factor};

/// Seconds → the integer-nanosecond wall measurements the loop consumes.
fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(1.0) as u64
}

/// The hot-swap stress test: 8 clients flood one service with GEMM
/// requests while bundle swaps land mid-flight. Every submit completes
/// (none blocked, none dropped), every result is bitwise-identical to
/// the direct kernel at the decided thread count in every epoch, and
/// each swap retires the memo so post-swap decisions are fresh sweeps.
#[test]
fn hot_swap_mid_flood_keeps_results_bitwise_stable() {
    const SHAPES: [(usize, usize, usize); 4] =
        [(48, 40, 32), (33, 17, 29), (64, 64, 64), (20, 96, 24)];
    const N_CLIENTS: usize = 8;
    const N_SWAPS: u64 = 5;
    const CAP: u32 = 4;

    let service = AdsalaService::with_config(
        quick_bundle().into_shared(),
        ServiceConfig { pool_workers: 4, ..ServiceConfig::default() },
    );
    let done = AtomicBool::new(false);
    let ops = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..N_CLIENTS {
            let (service, done, ops) = (&service, &done, &ops);
            scope.spawn(move || {
                let (m, n, k) = SHAPES[client % SHAPES.len()];
                let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect();
                let b: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 * 0.25).collect();
                // Reference output per decided thread count, computed on
                // the process pool, which the service's pool must match
                // bitwise (plan equivalence), lazily per client.
                let mut references: HashMap<u32, Vec<f32>> = HashMap::new();
                let mut serve = |epoch_tail: bool| {
                    let mut c = vec![1.0f32; m * n];
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.5, &a, k, &b, n, 0.5, &mut c, n).into();
                    let (decision, stats) = service
                        .run_with(&mut req, RunOptions::with_host_cap(CAP))
                        .expect("submit must never fail during a swap");
                    assert!(stats.exec.threads_used >= 1);
                    let threads = decision.threads();
                    assert!((1..=CAP).contains(&threads));
                    let reference = references.entry(threads).or_insert_with(|| {
                        let mut c_ref = vec![1.0f32; m * n];
                        let call = GemmCall::new(m, n, k, threads as usize);
                        gemm_with_stats(&call, 1.5, &a, k, &b, n, 0.5, &mut c_ref, n);
                        c_ref
                    });
                    assert_eq!(
                        &c, reference,
                        "torn result for {m}x{n}x{k} at {threads} threads (tail={epoch_tail})"
                    );
                    ops.fetch_add(1, Ordering::Relaxed);
                };
                while !done.load(Ordering::Relaxed) {
                    serve(false);
                }
                // A few more requests against the final epoch: the
                // service must serve normally after the last swap too.
                for _ in 0..3 {
                    serve(true);
                }
                // Identical models across every epoch ⇒ one deterministic
                // decision per shape ⇒ exactly one reference output.
                assert_eq!(
                    references.len(),
                    1,
                    "swapping identical models must not change the decision"
                );
            });
        }

        // The swapper: wait until the flood has demonstrably progressed,
        // then publish a cloned (identical-model) bundle, five times.
        let swapper_service = &service;
        let (done, ops) = (&done, &ops);
        scope.spawn(move || {
            for s in 0..N_SWAPS {
                let target = ops.load(Ordering::Relaxed) + 32;
                while ops.load(Ordering::Relaxed) < target {
                    std::thread::yield_now();
                }
                let cloned = (*swapper_service.bundle()).clone().into_shared();
                let generation = swapper_service.swap_bundle(cloned);
                assert_eq!(generation, s + 1, "each swap bumps the epoch exactly once");
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    let stats = service.stats();
    assert_eq!(stats.swaps, N_SWAPS);
    assert_eq!(stats.generation, N_SWAPS);
    // No blocked or dropped submits: every run was exactly one memo
    // lookup, and every one of them completed.
    let total_ops = ops.load(Ordering::Relaxed);
    assert!(total_ops >= N_SWAPS * 32);
    assert_eq!(stats.cache.lookups(), total_ops, "{stats:?}");
    // Distinct (shape, cap) keys decided at least once, plus at least
    // one fresh re-sweep per post-swap epoch: swaps really retire the
    // memo rather than serving stale decisions.
    assert!(
        stats.evaluations >= (SHAPES.len() as u64) + N_SWAPS,
        "swaps must force re-evaluation: {stats:?}"
    );
}

/// Shapes the drift scenario serves, all decided at a 1-thread cap so
/// the (threads-only) quick bundle pins one plan per shape and the
/// injected ground truth stays a function of the shape alone.
fn drift_shapes() -> Vec<OpShape> {
    (0..8u64)
        .map(|i| OpShape::gemm(Precision::F32, 32 + 16 * (i % 4), 64 + 64 * (i % 3), 32 + 8 * i))
        .collect()
}

/// The end-to-end drift scenario, fully deterministic via the
/// simulator-grade noise helpers: healthy traffic (measurements match
/// the model) → a sustained 3× injected slowdown trips the detector and
/// conservative fallbacks kick in → a reinstall is published with
/// `swap_bundle` (here a clone of the bundle, standing in for the fresh
/// install) → the detector is reset without a second trip, and model
/// decisions are served and memoised again.
#[test]
fn drift_trips_falls_back_and_a_swap_resets_it() {
    const SEED: u64 = 0x0_D21F;
    const SEVERITY: f64 = 3.0;
    const SIGMA: f64 = 0.02;
    const ROUNDS: u64 = 8;

    let bundle = quick_bundle().into_shared();
    let service = AdsalaService::with_config(
        Arc::clone(&bundle),
        ServiceConfig {
            pool_workers: 2,
            online: OnlineConfig::enabled(),
            ..ServiceConfig::default()
        },
    );
    let shapes = drift_shapes();
    // Ground truth: the install-time model is perfect at t = 0, so the
    // "machine" runs each pinned plan in exactly the time the original
    // bundle predicts — until the injected slowdown multiplies it.
    let baseline: HashMap<OpShape, f64> =
        shapes.iter().map(|&s| (s, bundle.decide_op_capped(s, 1).predicted_runtime_s)).collect();
    assert!(baseline.values().all(|&p| p > 0.0));

    // Phase 1 — healthy: measured ≈ predicted, detector must stay cold.
    for round in 0..ROUNDS {
        for (j, &shape) in shapes.iter().enumerate() {
            let d = service.select_for_capped(shape, 1);
            let noise = lognormal_factor(combine(&[SEED, round, j as u64]), SIGMA);
            service.observe(shape, &d.plan, d.predicted_runtime_s, ns(baseline[&shape] * noise));
        }
    }
    assert!(!service.is_drifted(), "healthy traffic must not trip: {:?}", service.stats().drift);
    assert!(service.stats().prediction.mean_abs_log_error < 0.1);

    // Phase 2 — drift: a sustained 3× slowdown (ln 3 ≈ 1.10, far over
    // the 0.35 trip band) on every GEMM.
    for round in 0..ROUNDS {
        for (j, &shape) in shapes.iter().enumerate() {
            let d = service.select_for_capped(shape, 1);
            let factor = drift_slowdown(combine(&[SEED, 1, round]), j as u64, SEVERITY, SIGMA);
            service.observe(shape, &d.plan, d.predicted_runtime_s, ns(baseline[&shape] * factor));
        }
    }
    assert!(service.is_drifted(), "{:?}", service.stats().drift);
    let snapshot = service.stats().drift;
    assert_eq!(snapshot.trips, 1);
    assert!(snapshot.for_routine(Routine::Gemm).ewma_abs_log_error > 0.35, "{snapshot:?}");
    let error_before = service.stats().prediction.mean_abs_log_error;
    assert!(error_before > 0.35, "drifted error must be visible: {error_before}");

    // While tripped, real requests are served with the conservative
    // fallback plan instead of the disowned model's choice.
    let (m, n, k) = (96usize, 48usize, 32usize);
    let a = vec![1.0f32; m * k];
    let b = vec![1.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let serve = |c: &mut [f32]| {
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, c, n).into();
        service.run_with(&mut req, RunOptions::with_host_cap(1)).unwrap().0
    };
    let fallback = serve(&mut c);
    assert_eq!(service.stats().drift_fallbacks, 1);
    assert!(!fallback.memoised, "fallback decisions must not be memoised");
    assert_eq!(fallback.threads(), 1);

    // A reinstall goes live through the same door: swap in a bundle.
    let generation = service.swap_bundle((*bundle).clone().into_shared());
    assert_eq!(generation, 1);
    assert_eq!(service.stats().generation, 1);
    assert_eq!(service.stats().swaps, 1);
    assert!(!service.is_drifted(), "a swap resets the detector");
    let reset = service.stats();
    assert_eq!(reset.drift.trips, 1, "a reset clears the error, not the trip count");
    assert_eq!(reset.prediction.samples, 0, "the swap retires the old model's error");
    assert_eq!(reset.drift.for_routine(Routine::Gemm).samples, 0);

    // Model-trusting serving is restored: the next run is a model
    // decision, not a fallback, and a repeat of it is a memo hit.
    let first = serve(&mut c);
    assert!(!first.memoised, "this shape's first model decision is a sweep");
    let again = serve(&mut c);
    assert!(again.memoised, "decisions memoise again once the detector is reset");
    assert_eq!(again.plan, first.plan);
    assert_eq!(service.stats().drift_fallbacks, 1);
    assert!(c.iter().all(|&v| v == k as f32));
    // A shape decided before the swap is swept afresh, then memoised.
    assert!(!service.select_for_capped(shapes[0], 1).memoised, "the swap retires the memo");
    assert!(service.select_for_capped(shapes[0], 1).memoised);
    assert_eq!(service.stats().drift.trips, 1);
}

/// The scheduler is a front door too: while the detector is tripped a
/// scheduled request runs the conservative plan — the widest threads-only
/// plan inside the thread budget, counted as a drift fallback — and the
/// learned plan is back the moment the detector is reset.
#[test]
fn scheduled_requests_honour_the_drift_detector() {
    const BUDGET: usize = 3;
    let service = Arc::new(AdsalaService::with_config(
        quick_bundle().into_shared(),
        ServiceConfig {
            pool_workers: 4,
            online: OnlineConfig {
                enabled: true,
                drift: DriftConfig { min_samples: 4, alpha: 0.5 },
            },
            ..ServiceConfig::default()
        },
    ));
    let sched = ServiceScheduler::with_config(
        Arc::clone(&service),
        SchedulerConfig { thread_budget: BUDGET, ..SchedulerConfig::default() },
    );
    let (m, n, k) = (64usize, 64usize, 64usize);
    let shape = OpShape::gemm(Precision::F32, m as u64, k as u64, n as u64);
    let a = vec![1.0f32; m * k];
    let b = vec![1.0f32; k * n];
    let submit = || {
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let run = sched.submit(&mut req).expect("scheduled GEMM");
        assert!(c.iter().all(|&v| v == k as f32));
        run
    };

    // Healthy: the model keeps a tiny GEMM off the full budget.
    let learned = submit();
    assert!((learned.plan.threads as usize) < BUDGET, "{learned:?}");
    assert_eq!(service.stats().drift_fallbacks, 0);

    // Sustained 8× slowdown versus prediction: trips the detector.
    for _ in 0..16 {
        service.observe(shape, &ExecutionPlan::with_threads(2), 1e-3, 8_000_000);
    }
    assert!(service.is_drifted());
    let conservative = service.bundle().conservative_op(shape, BUDGET as u32);
    let run = submit();
    let widest = service.bundle().max_candidate_threads().min(BUDGET as u32);
    assert_eq!(run.plan, ExecutionPlan::with_threads(widest));
    assert_eq!(run.plan, conservative.plan);
    assert!(run.plan.is_threads_only());
    assert_eq!(run.predicted_runtime_s.to_bits(), conservative.predicted_runtime_s.to_bits());
    assert_eq!(service.stats().drift_fallbacks, 1);

    // Recovery (here via the operator override) restores learned planning.
    service.reset_drift();
    let back = submit();
    assert_eq!(back.plan, learned.plan);
    assert_eq!(back.predicted_runtime_s.to_bits(), learned.predicted_runtime_s.to_bits());
    assert_eq!(service.stats().drift_fallbacks, 1, "a recovered service trusts the model again");
}
