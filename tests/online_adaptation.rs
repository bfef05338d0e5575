//! The bundle-swap acceptance tests: a hot-swap landing in the middle
//! of an 8-client flood without torn reads or blocked submits, and the
//! path a reinstall takes — a swapped-in bundle zeroes the per-routine
//! prediction-error sums and retires the memo, and model decisions are
//! served and memoised again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use adsala::bundle::quick_test_bundle as quick_bundle;
use adsala::prelude::*;
use adsala_gemm::gemm::{gemm_with_stats, GemmCall};
use adsala_gemm::PredictionErrorStats;
use adsala_repro::adsala_machine::noise::{combine, lognormal_factor};

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

    let service =
        AdsalaService::with_config(quick_bundle().into_shared(), ServiceConfig { pool_workers: 4 });
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

/// Shapes the swap scenario serves, all decided at a 1-thread cap so
/// the (threads-only) quick bundle pins one plan per shape.
fn swap_shapes() -> Vec<OpShape> {
    (0..8u64)
        .map(|i| OpShape::gemm(Precision::F32, 32 + 16 * (i % 4), 64 + 64 * (i % 3), 32 + 8 * i))
        .collect()
}

/// A reinstall goes live through `swap_bundle`, deterministically:
/// healthy traffic (measurements match the model, up to seeded noise)
/// fills the GEMM row of the prediction-error sums → a swapped-in bundle
/// (a clone, standing in for the fresh install) zeroes every row and
/// retires the memo → the next run is a model decision that memoises on
/// repeat, and a shape decided before the swap is decided afresh.
#[test]
fn a_swap_zeroes_the_error_sums_and_retires_the_memo() {
    const SEED: u64 = 0x0_D21F;
    const SIGMA: f64 = 0.02;
    const ROUNDS: u64 = 8;

    let bundle = quick_bundle().into_shared();
    let service =
        AdsalaService::with_config(Arc::clone(&bundle), ServiceConfig { pool_workers: 2 });
    let shapes = swap_shapes();
    // Ground truth: the install-time model is perfect, so the "machine"
    // runs each pinned plan in the time the bundle predicts, times noise.
    let baseline: HashMap<OpShape, f64> =
        shapes.iter().map(|&s| (s, bundle.decide_op_capped(s, 1).predicted_runtime_s)).collect();
    assert!(baseline.values().all(|&p| p > 0.0));

    // Healthy traffic fills the GEMM row, and only it.
    for round in 0..ROUNDS {
        for (j, &shape) in shapes.iter().enumerate() {
            let d = service.select_for_capped(shape, 1);
            let noise = lognormal_factor(combine(&[SEED, round, j as u64]), SIGMA);
            service.observe(shape, &d.plan, d.predicted_runtime_s, ns(baseline[&shape] * noise));
        }
    }
    let healthy = service.stats();
    let [gemm, syrk, gemv] = healthy.prediction_by_routine;
    assert_eq!(gemm.samples, ROUNDS * shapes.len() as u64);
    assert!(gemm.mean_abs_log_error > 0.0 && gemm.mean_abs_log_error < 0.1, "{gemm:?}");
    assert_eq!((syrk.samples, gemv.samples), (0, 0));
    assert_eq!(healthy.prediction, gemm, "one routine's row is the whole fold");

    // A reinstall goes live through the one door: swap in a bundle.
    let generation = service.swap_bundle((*bundle).clone().into_shared());
    assert_eq!(generation, 1);
    let swapped = service.stats();
    assert_eq!((swapped.generation, swapped.swaps), (1, 1));
    assert_eq!(swapped.prediction, PredictionErrorStats::default());
    assert_eq!(swapped.prediction_by_routine, [PredictionErrorStats::default(); 3]);

    // The next run is a model decision, and a repeat of it is a memo hit.
    let (m, n, k) = (96usize, 48usize, 32usize);
    let a = vec![1.0f32; m * k];
    let b = vec![1.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let serve = |c: &mut [f32]| {
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, c, n).into();
        service.run_with(&mut req, RunOptions::with_host_cap(1)).unwrap().0
    };
    let first = serve(&mut c);
    assert!(!first.memoised, "this shape's first model decision is a sweep");
    let shape = OpShape::gemm(Precision::F32, m as u64, k as u64, n as u64);
    assert_eq!(first, bundle.decide_op_capped(shape, 1), "the model's own decision");
    let again = serve(&mut c);
    assert!(again.memoised);
    assert_eq!(again.plan, first.plan);
    assert!(c.iter().all(|&v| v == k as f32));
    assert_eq!(service.stats().prediction_by_routine[0].samples, 2, "served ops are sums again");
    // A shape decided before the swap is swept afresh, then memoised.
    assert!(!service.select_for_capped(shapes[0], 1).memoised, "the swap retires the memo");
    assert!(service.select_for_capped(shapes[0], 1).memoised);
}
