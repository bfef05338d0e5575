//! One serving surface for every routine and precision: f32/f64 GEMM,
//! SYRK, and GEMV through a single `AdsalaService::run(..)` entry point.
//!
//! The flow demonstrates the full op-descriptor API:
//!
//! 1. install once on the simulated Gadi node (trains the GEMM model),
//! 2. train *dedicated* SYRK and GEMV selectors on the same machine with
//!    the same preprocessing config (the per-routine timers answer the
//!    paper's follow-up: each routine has its own thread response curve),
//! 3. pack everything into one schema-v2 artefact (`ModelTable`) and
//!    round-trip it through JSON,
//! 4. serve mixed routine/precision traffic from concurrent clients,
//!    verifying every result against the naive kernels.
//!
//! ```sh
//! cargo run --release --example multi_routine_serving
//! ```

use adsala::gather::{GatherConfig, TrainingData};
use adsala::install::{InstallConfig, Installation};
use adsala::prelude::*;
use adsala_machine::{GemmTimer, MachineModel, SimTimer};
use adsala_ml::data::Matrix;
use adsala_ml::tune::ModelSpec;
use adsala_ml::{AnyModel, Regressor};

/// Train a dedicated selector for one routine: time the routine itself
/// (not GEMM) on the target machine, push the timings through the *base*
/// preprocessing config — the bundle shares one config across routines —
/// and fit a boosted-tree regressor on the transformed rows.
fn train_routine_model(
    base_config: &adsala::PreprocessConfig,
    machine: MachineModel,
    op: Routine,
    seed: u64,
) -> AnyModel {
    let timer = SimTimer::for_routine(machine, op);
    let gather = GatherConfig { n_shapes: 60, reps: 2, ..GatherConfig::quick() };
    let data = TrainingData::gather(&timer, &gather);
    let rows: Vec<Vec<f64>> = data
        .records
        .iter()
        .map(|r| {
            let shape = OpShape::gemm(Precision::F32, r.shape.m, r.shape.k, r.shape.n);
            base_config.features_for_point(&data.grid, &shape, &r.point)
        })
        .collect();
    let labels: Vec<f64> =
        data.records.iter().map(|r| base_config.label_for_runtime(r.runtime_s)).collect();
    let mut model =
        ModelSpec::XgBoost { n_rounds: 40, max_depth: 4, eta: 0.2, lambda: 1.0 }.build(seed);
    model.fit(&Matrix::from_rows(&rows), &labels).expect("fit routine model");
    model
}

fn main() {
    // 1. Base installation: the GEMM model and the preprocessing config.
    let machine = MachineModel::gadi();
    let timer = SimTimer::new(machine.clone());
    println!("installing on {} ...", GemmTimer::name(&timer));
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("install");
    println!("GEMM model family: {:?}", install.selected);
    let bundle = install.into_bundle();

    // 2. Dedicated per-routine selectors, sharing the bundle's config.
    println!("training dedicated SYRK and GEMV selectors ...");
    let syrk_model = train_routine_model(&bundle.config, machine.clone(), Routine::Syrk, 11);
    let gemv_model = train_routine_model(&bundle.config, machine, Routine::Gemv, 13);
    let bundle = bundle
        .with_routine_model(Routine::Syrk, syrk_model)
        .with_routine_model(Routine::Gemv, gemv_model);

    // 3. Round-trip the v2 artefact: one JSON document now carries the
    //    whole model table.
    let dir = std::env::temp_dir().join("adsala-multi-routine");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("artifact_v2.json");
    bundle.save("gadi-sim", &path).expect("save v2 artefact");
    let bundle = ArtifactBundle::load(&path).expect("load v2 artefact").into_shared();
    println!("v2 artefact round-tripped through {}", path.display());

    // Show the per-routine decisions at one feature-space point: SYRK and
    // GEMV have their own response curves, so their dedicated models may
    // disagree with the GEMM fallback.
    println!("\n{:<28} {:>8} {:>16}", "operation", "threads", "predicted (us)");
    for shape in [
        OpShape::gemm(Precision::F32, 2000, 200, 2000),
        OpShape::syrk(Precision::F64, 2000, 200),
        OpShape::gemv(Precision::F64, 20_000, 2000),
    ] {
        let d = bundle.decide_op_capped(shape, u32::MAX);
        println!(
            "{:<28} {:>8} {:>16.1}",
            format!("{} {} {:?}", shape.precision, shape.routine, shape.dims),
            d.threads(),
            d.predicted_runtime_s * 1e6
        );
    }

    // 4. One service, four concurrent clients, four routine/precision mixes.
    let service = AdsalaService::with_config(bundle, ServiceConfig { pool_workers: 0 });
    let rounds = 12usize;
    std::thread::scope(|scope| {
        // f32 GEMM client.
        let svc = &service;
        scope.spawn(move || {
            let (m, n, k) = (64usize, 48usize, 256usize);
            let a = vec![1.0f32; m * k];
            let b = vec![0.5f32; k * n];
            for _ in 0..rounds {
                let mut c = vec![0.0f32; m * n];
                let mut req: OpRequest<'_, f32> =
                    GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                let (_, stats) = svc.run(&mut req).expect("f32 gemm");
                assert_eq!(stats.routine, Routine::Gemm);
                let expected = k as f32 * 0.5;
                assert!(c.iter().all(|&v| (v - expected).abs() <= 1e-2 * expected));
            }
        });
        // f64 GEMM client (same dims as f32 — distinct cache entry).
        scope.spawn(move || {
            let (m, n, k) = (64usize, 48usize, 256usize);
            let a = vec![1.0f64; m * k];
            let b = vec![0.5f64; k * n];
            for _ in 0..rounds {
                let mut c = vec![0.0f64; m * n];
                let mut req: OpRequest<'_, f64> =
                    GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                let (_, stats) =
                    svc.run_with(&mut req, RunOptions::with_host_cap(8)).expect("f64 gemm");
                assert_eq!(stats.precision, Precision::F64);
                let expected = k as f64 * 0.5;
                assert!(c.iter().all(|&v| (v - expected).abs() <= 1e-9 * expected));
            }
        });
        // f64 SYRK client: C = A·Aᵀ for constant A is k in every cell.
        scope.spawn(move || {
            let (m, k) = (96usize, 32usize);
            let a = vec![1.0f64; m * k];
            for _ in 0..rounds {
                let mut c = vec![0.0f64; m * m];
                let mut req: OpRequest<'_, f64> =
                    SyrkArgs { m, k, alpha: 1.0, a: &a, lda: k, beta: 0.0, c: &mut c, ldc: m }
                        .into();
                let (_, stats) = svc.run(&mut req).expect("f64 syrk");
                assert_eq!(stats.routine, Routine::Syrk);
                for i in 0..m {
                    for j in 0..=i {
                        assert!((c[i * m + j] - k as f64).abs() < 1e-9);
                    }
                }
            }
        });
        // f32 GEMV client: y = A·x for constant operands is n · 0.5.
        scope.spawn(move || {
            let (m, n) = (512usize, 128usize);
            let a = vec![1.0f32; m * n];
            let x = vec![0.5f32; n];
            for _ in 0..rounds {
                let mut y = vec![0.0f32; m];
                let mut req: OpRequest<'_, f32> =
                    GemvArgs { m, n, alpha: 1.0, a: &a, lda: n, x: &x, beta: 0.0, y: &mut y }
                        .into();
                let (_, stats) = svc.run(&mut req).expect("f32 gemv");
                assert_eq!(stats.routine, Routine::Gemv);
                let expected = n as f32 * 0.5;
                assert!(y.iter().all(|&v| (v - expected).abs() <= 1e-2 * expected));
            }
        });
    });
    println!("\n4 clients x {rounds} mixed-routine calls served and verified");

    // Malformed traffic is rejected, not fatal.
    let a = vec![0.0f32; 16];
    let x = vec![0.0f32; 4];
    let mut y = vec![0.0f32; 2]; // too short for m = 4
    let mut bad: OpRequest<'_, f32> =
        GemvArgs { m: 4, n: 4, alpha: 1.0, a: &a, lda: 4, x: &x, beta: 0.0, y: &mut y }.into();
    match service.run(&mut bad) {
        Err(AdsalaError::Shape(e)) => println!("malformed request rejected: {e}"),
        other => panic!("expected a shape error, got {other:?}"),
    }

    // 5. Serving diagnostics: one cache, keyed by (routine, precision, dims).
    let ServiceStats { cache: stats, evaluations: sweeps, .. } = service.stats();
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} entries across {} shards",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate(),
        stats.entries,
        stats.shards
    );
    // Four distinct (routine, precision, shape) keys; a call made while
    // other clients were in flight decided under its share of the pool,
    // a thread-ladder rung, so each key holds at most one entry per rung.
    let rungs = service.candidates().len() as u64;
    assert!((4..=4 * rungs).contains(&stats.entries), "{stats:?}");
    println!("model sweeps: {sweeps}");
    std::fs::remove_file(&path).ok();
    println!("done.");
}
