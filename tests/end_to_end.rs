//! Cross-crate integration: the full paper workflow from sampling to
//! runtime decisions, on both simulated machines.

use adsala_repro::adsala::install::{InstallConfig, Installation};
use adsala_repro::adsala::{AdsalaService, Artifact, OpShape, PlanDecision, Precision};
use adsala_repro::adsala_machine::{GemmTimer, MachineModel, SimTimer};
use adsala_repro::adsala_ml::ModelKind;
use adsala_repro::adsala_sampling::GemmShape;

/// The service's uncapped decision for an f32 GEMM `(m, k, n)` — a thread
/// count is the default-axes plan at that count.
fn decide(service: &AdsalaService, m: u64, k: u64, n: u64) -> PlanDecision {
    service.select_for_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX)
}

fn quick_install(model: MachineModel) -> (SimTimer, Installation) {
    let timer = SimTimer::new(model);
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("install");
    (timer, install)
}

#[test]
fn gadi_pipeline_selects_boosting_and_speeds_up() {
    let (timer, install) = quick_install(MachineModel::gadi());
    assert_eq!(install.selected, ModelKind::XgBoost);

    let runtime = install.into_service();
    // Fresh shapes never seen in training.
    let shapes = [
        GemmShape::new(100, 3000, 100),
        GemmShape::new(48, 48, 48),
        GemmShape::new(900, 900, 900),
        GemmShape::new(64, 64, 2000),
        GemmShape::new(500, 100, 4000),
    ];
    let p_max = timer.max_threads();
    let mut t_orig = 0.0;
    let mut t_ml = 0.0;
    for s in shapes {
        let d = decide(&runtime, s.m, s.k, s.n);
        t_orig += timer.time(s, p_max, 5);
        t_ml += timer.time(s, d.threads(), 5);
    }
    let aggregate_speedup = t_orig / t_ml;
    assert!(
        aggregate_speedup > 1.2,
        "ADSALA should beat the max-thread default: {aggregate_speedup:.2}x"
    );
}

#[test]
fn setonix_pipeline_end_to_end() {
    let (timer, install) = quick_install(MachineModel::setonix());
    assert_eq!(install.max_threads, 256);
    let runtime = install.into_service();
    let small = decide(&runtime, 64, 64, 64);
    assert!(
        small.threads() < 128,
        "tiny GEMM got {} threads on a 256-thread node",
        small.threads()
    );
    let large = decide(&runtime, 4000, 4000, 4000);
    assert!(large.threads() >= 64, "large square GEMM got only {} threads", large.threads());
    let _ = timer; // timer participates via the install above
}

#[test]
fn artifact_file_roundtrip_preserves_runtime_behaviour() {
    let (_, install) = quick_install(MachineModel::gadi());
    let artifact = install.to_artifact();
    let dir = std::env::temp_dir().join("adsala-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("artifact.json");
    artifact.save(&path).expect("save");
    let restored = Artifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let a = artifact.into_service();
    let b = restored.into_service();
    for (m, k, n) in [(64, 2048, 64), (128, 128, 128), (2000, 500, 300)] {
        assert_eq!(
            decide(&a, m, k, n).threads(),
            decide(&b, m, k, n).threads(),
            "decision changed after disk roundtrip for {m}x{k}x{n}"
        );
    }
}

#[test]
fn memoisation_counts_evaluations_once_per_shape_change() {
    let (_, install) = quick_install(MachineModel::gadi());
    let runtime = install.into_service();
    for _ in 0..10 {
        decide(&runtime, 64, 3000, 64);
    }
    assert_eq!(runtime.stats().evaluations, 1);
    decide(&runtime, 65, 3000, 64);
    assert_eq!(runtime.stats().evaluations, 2);
}

#[test]
fn install_reports_have_finite_sane_metrics() {
    let (_, install) = quick_install(MachineModel::gadi());
    for r in &install.reports {
        assert!(r.test_nrmse.is_finite() && r.test_nrmse >= 0.0, "{r:?}");
        assert!(r.eval_time_us > 0.0, "{r:?}");
        assert!(r.ideal_mean_speedup > 0.0, "{r:?}");
        assert!(
            r.est_mean_speedup <= r.ideal_mean_speedup + 1e-9,
            "eval overhead cannot raise the speedup: {r:?}"
        );
    }
}
