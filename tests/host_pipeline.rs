//! End-to-end against real hardware: the same installation pipeline that
//! runs on the simulated nodes, driven by `HostTimer` — which times the
//! actual blocked GEMM, SYRK or GEMV from `adsala-gemm` on this machine's
//! cores through the service's `OpRequest` dispatch, warm on a persistent
//! pool (the process-wide one): the executor the service serves on.
//!
//! Kept deliberately tiny (small shapes, few reps) so it stays in CI
//! territory; the point is that nothing in the pipeline is
//! simulator-specific.

use adsala_repro::adsala::gather::{GatherConfig, ThreadLadder};
use adsala_repro::adsala::install::{InstallConfig, Installation};
use adsala_repro::adsala::{
    GemmArgs, GemvArgs, OpRequest, OpShape, Precision, Routine, RunOptions, SyrkArgs,
};
use adsala_repro::adsala_gemm::gemv::naive_gemv;
use adsala_repro::adsala_gemm::plan::PlanGrid;
use adsala_repro::adsala_gemm::syrk::naive_syrk;
use adsala_repro::adsala_machine::{GemmTimer, HostTimer};
use adsala_repro::adsala_ml::tune::ModelSpec;
use adsala_repro::adsala_ml::ModelKind;
use adsala_repro::adsala_sampling::MemoryCap;

fn tiny_host_config(max_threads: u32) -> InstallConfig {
    let ladder = ThreadLadder::geometric(max_threads);
    // The install pipeline needs ≥50 train + ≥10 test rows after the
    // stratified split; rows = shapes × rungs, so scale the shape count
    // for machines whose ladder is short (a 1-core host has one rung).
    let n_shapes = 40usize.max(120usize.div_ceil(ladder.len()));
    let mut cfg = InstallConfig::quick();
    cfg.gather = GatherConfig {
        n_shapes,
        cap: MemoryCap::from_mb(2),
        reps: 1,
        grid: Some(PlanGrid::threads_only(ladder.counts)),
        max_dim: Some(384),
        ..GatherConfig::quick()
    };
    cfg.families = vec![ModelKind::DecisionTree];
    cfg.grids = vec![(
        ModelKind::DecisionTree,
        vec![ModelSpec::DecisionTree { max_depth: 10, min_samples_leaf: 2 }],
    )];
    cfg.folds = 3;
    cfg.speedup_reps = 1;
    cfg.max_speedup_shapes = 10;
    cfg
}

#[test]
fn pipeline_trains_against_real_host_gemm() {
    let host_threads =
        std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(2).min(8);
    let timer = HostTimer::with_max_threads(host_threads);
    let cfg = tiny_host_config(host_threads);
    let install = Installation::run(&timer, &cfg).expect("host install");

    assert_eq!(install.max_threads, host_threads);
    assert!(install.machine.contains("host"));
    let report = &install.reports[0];
    assert!(
        report.test_nrmse < 1.0,
        "model no better than the mean predictor on real timings: {}",
        report.test_nrmse
    );

    // The runtime handle must produce usable decisions and execute a
    // correct GEMM with them.
    let gemm = install.into_service();
    let d = gemm.select_for_capped(OpShape::gemm(Precision::F32, 96, 96, 96), u32::MAX);
    assert!((1..=host_threads).contains(&d.threads()));

    let (m, k, n) = (48usize, 32usize, 40usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 11) as f32 - 5.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.25).collect();
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let (_, stats) = gemm
        .run_with(&mut req, RunOptions::with_host_cap(host_threads))
        .expect("well-formed sgemm");
    assert!(stats.exec.kernel_calls > 0);

    let mut c_ref = vec![0.0f32; m * n];
    adsala_repro::adsala_gemm::naive::naive_gemm(
        adsala_repro::adsala_gemm::Transpose::No,
        adsala_repro::adsala_gemm::Transpose::No,
        m,
        n,
        k,
        1.0f32,
        &a,
        k,
        &b,
        n,
        0.0,
        &mut c_ref,
        n,
    );
    for (x, y) in c.iter().zip(&c_ref) {
        assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
    }
}

#[test]
fn pipeline_trains_syrk_and_gemv_tables_on_the_host() {
    let host_threads =
        std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(2).min(8);
    let ladder = ThreadLadder::geometric(host_threads).counts;
    let (m, k) = (40usize, 24usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect();
    for routine in [Routine::Syrk, Routine::Gemv] {
        let timer = HostTimer::for_routine(host_threads, routine);
        let install = Installation::run(&timer, &tiny_host_config(host_threads))
            .unwrap_or_else(|e| panic!("host {routine} install: {e}"));
        assert!(install.machine.contains(&routine.as_str().to_uppercase()));
        let service = install.into_service();
        let opts = RunOptions::with_host_cap(host_threads);
        // One op of the routine, served through its table, against the
        // naive reference.
        let (decision, stats) = match routine {
            Routine::Syrk => {
                let mut c = vec![0.0f32; m * m];
                let mut req: OpRequest<'_, f32> =
                    SyrkArgs { m, k, alpha: 1.0, a: &a, lda: k, beta: 0.0, c: &mut c, ldc: m }
                        .into();
                let served = service.run_with(&mut req, opts).expect("well-formed ssyrk");
                let mut c_ref = vec![0.0f32; m * m];
                naive_syrk(m, k, 1.0, &a, k, 0.0, &mut c_ref, m);
                for i in 0..m {
                    for j in 0..=i {
                        let (x, y) = (c[i * m + j], c_ref[i * m + j]);
                        assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "c[{i},{j}] {x} vs {y}");
                    }
                }
                served
            }
            _ => {
                let x: Vec<f32> = (0..k).map(|i| (i % 5) as f32 - 2.0).collect();
                let mut y = vec![0.0f32; m];
                let mut req: OpRequest<'_, f32> =
                    GemvArgs { m, n: k, alpha: 1.0, a: &a, lda: k, x: &x, beta: 0.0, y: &mut y }
                        .into();
                let served = service.run_with(&mut req, opts).expect("well-formed sgemv");
                let mut y_ref = vec![0.0f32; m];
                naive_gemv(m, k, 1.0, &a, k, &x, 0.0, &mut y_ref);
                for (x, y) in y.iter().zip(&y_ref) {
                    assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "{x} vs {y}");
                }
                served
            }
        };
        assert_eq!(stats.routine, routine);
        assert!(ladder.contains(&decision.threads()), "{routine} decided {decision:?}");
        let probe = OpShape::from_gemm_equivalent(routine, Precision::F32, (96, 96, 96));
        let d = service.select_for_capped(probe, u32::MAX);
        assert!(ladder.contains(&d.threads()), "{routine} decided {d:?}");
    }
}

#[test]
fn host_timer_thread_scaling_is_sane() {
    // On any multi-core host, a 384³ GEMM on 2 threads should not be
    // slower than ~1.6x the single-thread time (generous bound to stay
    // robust on loaded CI machines).
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        return;
    }
    let timer = HostTimer::with_max_threads(2);
    let shape = adsala_repro::adsala_sampling::GemmShape::new(384, 384, 384);
    let t1 = timer.time(shape, 1, 3);
    let t2 = timer.time(shape, 2, 3);
    assert!(t2 < t1 * 1.6, "2-thread GEMM implausibly slow: {t2}s vs {t1}s serial");
}
