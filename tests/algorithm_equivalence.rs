//! Algorithm-axis equivalence suite: every algorithm the widened plan
//! grid can emit must compute the same product as the blocked driver.
//!
//! * Strassen reassociates additions, so Strassen vs blocked equality is
//!   to a *relative* tolerance (1e-9 for f64, 1e-3 for f32 — one extra
//!   digit of slack per recursion level over the drivers' own error),
//!   across transpose combinations and skewed shapes; ineligible shapes
//!   must degrade to the bitwise-identical blocked call.
//! * The Z-order driver only reorders macro-blocks: it matches the serial
//!   blocked driver bitwise (same kernels, same per-tile update order).
//! * Plan-pinned algorithm execution flows through the serving stack:
//!   `AdsalaService::run_pinned` honours an eligible Strassen plan, and
//!   the scheduler reports executed algorithms into the service mix.
//! * The committed v3 artefact fixture (uniform block scales, no
//!   algorithm axis) must migrate to schema v4 and decide bit-for-bit
//!   like the build that wrote it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use adsala_repro::adsala::prelude::*;
use adsala_repro::adsala_gemm::gemm::{gemm_with_stats, gemm_with_stats_pooled, GemmCall};
use adsala_repro::adsala_gemm::naive::naive_gemm;
use adsala_repro::adsala_gemm::plan::Algorithm;
use adsala_repro::adsala_gemm::pool::ThreadPool;
use adsala_repro::adsala_gemm::Transpose;

/// `(m, n, k, trans_a, trans_b)`: Strassen-eligible shapes (even dims,
/// min ≥ 2·cutoff for cutoff 64) — square, skewed both ways — across
/// every transpose combination.
const STRASSEN_CASES: &[(usize, usize, usize, bool, bool)] = &[
    (256, 256, 256, false, false),
    (256, 128, 192, true, false),
    (128, 384, 256, false, true),
    (192, 192, 128, true, true),
    (512, 128, 128, false, false),
];

fn fill<T: From<f32>>(n: usize, seed: u64) -> Vec<T> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            T::from(((s % 1000) as f32 - 500.0) / 100.0)
        })
        .collect()
}

fn transposes(ta: bool, tb: bool) -> (Transpose, Transpose) {
    let t = |flag| if flag { Transpose::Yes } else { Transpose::No };
    (t(ta), t(tb))
}

/// Stored-operand sizes and leading strides for a transposed call.
fn strides(
    m: usize,
    n: usize,
    k: usize,
    ta: Transpose,
    tb: Transpose,
) -> (usize, usize, usize, usize) {
    let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
    let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
    (ar * ac, br * bc, ac.max(1), bc.max(1))
}

macro_rules! strassen_matches_blocked {
    ($name:ident, $t:ty, $tol:expr) => {
        #[test]
        fn $name() {
            let pool = ThreadPool::new(3);
            for &(m, n, k, ta, tb) in STRASSEN_CASES {
                let (ta, tb) = transposes(ta, tb);
                let (a_len, b_len, lda, ldb) = strides(m, n, k, ta, tb);
                let a: Vec<$t> = fill(a_len, m as u64);
                let b: Vec<$t> = fill(b_len, n as u64 + 1);
                let mut c_str: Vec<$t> = fill(m * n, k as u64 + 2);
                let mut c_blk = c_str.clone();
                let alpha = <$t>::from(1.25f32);
                let beta = <$t>::from(-0.5f32);

                let base = GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, 3) };
                let call =
                    base.with_plan(base.plan.with_algorithm(Algorithm::Strassen { cutoff: 64 }));
                let s = gemm_with_stats_pooled(
                    &pool, &call, alpha, &a, lda, &b, ldb, beta, &mut c_str, n,
                );
                assert_eq!(
                    s.algorithm,
                    Algorithm::Strassen { cutoff: 64 },
                    "{m}x{n}x{k} ta={ta:?} tb={tb:?} must be Strassen-eligible"
                );
                gemm_with_stats_pooled(&pool, &base, alpha, &a, lda, &b, ldb, beta, &mut c_blk, n);
                for (i, (x, y)) in c_str.iter().zip(&c_blk).enumerate() {
                    let (x, y) = (f64::from(*x), f64::from(*y));
                    assert!(
                        (x - y).abs() <= $tol * (1.0 + y.abs()),
                        "Strassen drifted at {i} for {m}x{n}x{k} ta={ta:?} tb={tb:?}: {x} vs {y}"
                    );
                }
            }
        }
    };
}

strassen_matches_blocked!(strassen_matches_blocked_f64, f64, 1e-9);
strassen_matches_blocked!(strassen_matches_blocked_f32, f32, 1e-3);

/// Shapes the dispatcher must refuse (odd dims, or too small for the
/// cutoff) run the blocked driver bit-for-bit and report the downgrade.
#[test]
fn ineligible_strassen_is_bitwise_the_blocked_call() {
    for &(m, n, k) in &[(255usize, 256usize, 256usize), (64, 64, 64), (2, 507, 2)] {
        let a: Vec<f64> = fill(m * k, 31);
        let b: Vec<f64> = fill(k * n, 32);
        let mut c_str: Vec<f64> = fill(m * n, 33);
        let mut c_blk = c_str.clone();
        let base = GemmCall::new(m, n, k, 2);
        let call = base.with_plan(base.plan.with_algorithm(Algorithm::Strassen { cutoff: 64 }));
        let s = gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.5, &mut c_str, n);
        assert_eq!(s.algorithm, Algorithm::Blocked, "{m}x{n}x{k} must degrade");
        gemm_with_stats(&base, 1.0, &a, k, &b, n, 0.5, &mut c_blk, n);
        assert_eq!(c_str, c_blk, "the degraded call must be exactly the blocked call");
    }
}

/// The Z-order driver differs from the serial blocked driver only in
/// macro-block traversal order, so results are bitwise identical.
#[test]
fn zorder_plans_match_serial_blocked_bitwise() {
    let pool = ThreadPool::new(2);
    for &(m, n, k) in &[(200usize, 144usize, 96usize), (97, 33, 131)] {
        let a: Vec<f32> = fill(m * k, 61);
        let b: Vec<f32> = fill(k * n, 62);
        let mut c_z: Vec<f32> = fill(m * n, 63);
        let mut c_blk = c_z.clone();
        let serial = GemmCall::new(m, n, k, 1);
        let zcall = serial.with_plan(serial.plan.with_algorithm(Algorithm::ZOrder));
        let s = gemm_with_stats_pooled(&pool, &zcall, 2.0, &a, k, &b, n, -1.0, &mut c_z, n);
        assert_eq!(s.algorithm, Algorithm::ZOrder);
        gemm_with_stats(&serial, 2.0, &a, k, &b, n, -1.0, &mut c_blk, n);
        assert_eq!(c_z, c_blk, "zorder drifted from serial blocked at {m}x{n}x{k}");
    }
}

/// The service's uncapped decision for an f32 GEMM `(m, k, n)` — a thread
/// count is the default-axes plan at that count.
fn decide(service: &AdsalaService, m: u64, k: u64, n: u64) -> PlanDecision {
    service.select_for_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX)
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn fixture_service() -> AdsalaService {
    let art = Artifact::load(&fixture_path("artifact_v3.json")).expect("fixture must load");
    AdsalaService::with_config(art.into_bundle().into_shared(), ServiceConfig { pool_workers: 2 })
}

/// An eligible Strassen plan pinned through the service executes the
/// Strassen recursion, computes the right product, and lands in the
/// service's algorithm-mix telemetry.
#[test]
fn pinned_strassen_runs_through_the_service() {
    let svc = fixture_service();
    let (m, n, k) = (256usize, 256usize, 256usize);
    let a: Vec<f64> = fill(m * k, 71);
    let b: Vec<f64> = fill(k * n, 72);
    let mut c = vec![0.0f64; m * n];
    let plan = ExecutionPlan {
        algorithm: Algorithm::Strassen { cutoff: 64 },
        ..ExecutionPlan::with_threads(2)
    };
    let mut req: OpRequest<'_, f64> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let stats = svc.run_pinned(&mut req, &plan).unwrap();
    assert_eq!(stats.exec.algorithm, Algorithm::Strassen { cutoff: 64 });
    assert!(!stats.plan_degraded);
    assert_eq!(svc.stats().algorithms.strassen, 1);

    let mut c_ref = vec![0.0f64; m * n];
    naive_gemm(Transpose::No, Transpose::No, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c_ref, n);
    for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
        assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "wrong at {i}: {x} vs {y}");
    }
}

/// A *learned* non-`Blocked` decision is what the service executes: the
/// model (not a pinned plan) routes a shape off the blocked driver, and
/// dispatch runs that algorithm undegraded, books it in the executed
/// slot, and computes the blocked driver's product.
#[test]
fn learned_non_blocked_decision_executes_as_decided() {
    use adsala::bundle::quick_test_bundle_over;
    use adsala_repro::adsala_gemm::plan::PlanGrid;

    // Simulator-trained, so the decisions are the same on every host.
    let bundle = quick_test_bundle_over(Some(PlanGrid::widened(vec![1, 2], 64)));
    let svc = AdsalaService::with_config(bundle.into_shared(), ServiceConfig { pool_workers: 2 });
    const SHAPES: &[(usize, usize, usize)] = &[
        (128, 128, 128),
        (192, 192, 192),
        (256, 256, 256),
        (384, 384, 384),
        (512, 512, 512),
        (512, 128, 128),
        (128, 384, 256),
        (256, 128, 192),
    ];
    let ((m, n, k), decided) = SHAPES
        .iter()
        .find_map(|&(m, n, k)| {
            let shape = OpShape::gemm(Precision::F32, m as u64, k as u64, n as u64);
            let algorithm = svc.select_for_capped(shape, 1).plan.algorithm;
            (algorithm != Algorithm::Blocked).then_some(((m, n, k), algorithm))
        })
        .expect("the widened simulator grid routes no listed shape off the blocked driver");

    let a: Vec<f32> = fill(m * k, 91);
    let b: Vec<f32> = fill(k * n, 92);
    let mut expected_mix = svc.stats().algorithms;
    match decided {
        Algorithm::Blocked => unreachable!("filtered above"),
        Algorithm::Strassen { .. } => expected_mix.strassen += 1,
        Algorithm::ZOrder => expected_mix.zorder += 1,
    }
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let (decision, stats) = svc.run_with(&mut req, RunOptions::with_host_cap(1)).unwrap();
    assert_eq!(decision.plan.algorithm, decided, "run_with re-decided {m}x{n}x{k}");
    assert_eq!(stats.exec.algorithm, decided, "dispatch ran another driver for {m}x{n}x{k}");
    assert!(!stats.plan_degraded, "the learned plan was degraded: {stats:?}");
    assert_eq!(svc.stats().algorithms, expected_mix, "exactly the executed slot moves by one");

    let mut c_blk = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c_blk, n).into();
    let pinned = svc.run_pinned(&mut req, &ExecutionPlan::with_threads(1)).unwrap();
    assert_eq!(pinned.exec.algorithm, Algorithm::Blocked);
    for (i, (x, y)) in c.iter().zip(&c_blk).enumerate() {
        let (x, y) = (f64::from(*x), f64::from(*y));
        assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "{decided:?} drifted at {i}: {x} vs {y}");
    }
}

/// Ops routed through the scheduler report their executed algorithm into
/// the wrapped service's mix (each is a `run_with` call, so it feeds the
/// same telemetry).
#[test]
fn scheduler_reports_executed_algorithms_into_the_service_mix() {
    let svc = Arc::new(fixture_service());
    let sched = ServiceScheduler::new(Arc::clone(&svc));
    let (m, n, k) = (96usize, 96usize, 96usize);
    let a: Vec<f32> = fill(m * k, 81);
    let b: Vec<f32> = fill(k * n, 82);
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let run = sched.submit(&mut req).unwrap();
    let mix = svc.stats().algorithms;
    assert_eq!(
        mix.blocked + mix.strassen + mix.zorder,
        1,
        "exactly one executed op must be tallied, got {mix:?}"
    );
    // The tallied bucket is the algorithm the stats report.
    let expected = match run.stats.exec.algorithm {
        Algorithm::Blocked => mix.blocked,
        Algorithm::Strassen { .. } => mix.strassen,
        Algorithm::ZOrder => mix.zorder,
    };
    assert_eq!(expected, 1);
}

/// Decisions recorded from the v3 (uniform-block-scale) build for the
/// committed fixture: `((m, k, n), threads, predicted_runtime_s bits)`.
/// The v3→v4 migration widens the grid without changing the candidate
/// set, iteration order, or feature rows, so the served decisions must
/// stay bit-identical.
const V3_PINNED_DECISIONS: &[((u64, u64, u64), u32, u64)] = &[
    ((64, 64, 64), 1, 0x3f01ca39686174a6),
    ((1000, 500, 1000), 48, 0x3f4f00f97234b037),
    ((64, 4096, 64), 1, 0x3f5a01103d350828),
    ((128, 512, 128), 1, 0x3f205ca1222e616b),
    ((2000, 64, 2000), 48, 0x3f41a4193cad7417),
    ((48, 48, 48), 1, 0x3f046d5363ad464b),
    ((3000, 3000, 3000), 48, 0x3f8c6387971e10d4),
    ((1, 74000, 1), 1, 0x3f84a9d848a76302),
];

#[test]
fn v3_fixture_loads_as_v4_with_a_widened_blocked_only_grid() {
    use adsala_repro::adsala_gemm::plan::{BlockScale, FEATURE_REV_LEGACY};
    let art = Artifact::load(&fixture_path("artifact_v3.json")).expect("fixture must load");
    assert_eq!(art.version, Artifact::VERSION);
    assert_eq!(art.machine, "gadi-sim-v3");
    assert_eq!(
        art.grid.blockings,
        vec![BlockScale::uniform(100), BlockScale::uniform(50), BlockScale::uniform(200)],
        "v3 block percents widen to uniform per-axis triples"
    );
    assert_eq!(art.grid.algorithms, vec![Algorithm::Blocked]);
    assert_eq!(art.grid.feature_rev, FEATURE_REV_LEGACY);
    assert!(art.grid.plan_features);
    assert!(art.grid.points().all(|p| p.algorithm == Algorithm::Blocked));
}

#[test]
fn v3_fixture_decides_bitwise_identically_after_migration() {
    let runtime = Artifact::load(&fixture_path("artifact_v3.json"))
        .expect("fixture must load")
        .into_service();
    for &((m, k, n), threads, runtime_bits) in V3_PINNED_DECISIONS {
        let d = decide(&runtime, m, k, n);
        assert_eq!(d.threads(), threads, "thread decision drifted for {m}x{k}x{n}");
        assert_eq!(
            d.plan.algorithm,
            Algorithm::Blocked,
            "migrated v3 artefacts must never emit a non-blocked algorithm"
        );
        assert_eq!(
            d.predicted_runtime_s.to_bits(),
            runtime_bits,
            "predicted runtime drifted for {m}x{k}x{n}: {:e}",
            d.predicted_runtime_s
        );
    }
}

#[test]
fn v3_fixture_serves_identically_through_the_concurrent_service() {
    let svc = fixture_service();
    for &((m, k, n), threads, runtime_bits) in V3_PINNED_DECISIONS {
        let d = decide(&svc, m, k, n);
        assert_eq!(d.threads(), threads);
        assert_eq!(d.predicted_runtime_s.to_bits(), runtime_bits);
    }
}

/// Rewriting the migrated fixture emits a v4 document whose decisions
/// round-trip bit-exactly.
#[test]
fn migrated_v3_fixture_rewrites_as_v4_and_round_trips() {
    let art = Artifact::load(&fixture_path("artifact_v3.json")).expect("fixture must load");
    let json = art.to_json().expect("serialise");
    assert!(json.contains("\"version\":4"), "rewritten artefacts must be v4");
    assert!(json.contains("\"blockings\""), "v4 carries per-axis block scales");
    assert!(json.contains("\"algorithms\""), "v4 carries the algorithm axis");
    let back = Artifact::from_json(&json).expect("v4 round trip");
    let a = art.into_service();
    let b = back.into_service();
    for &((m, k, n), _, _) in V3_PINNED_DECISIONS {
        assert_eq!(decide(&a, m, k, n), decide(&b, m, k, n));
    }
}
