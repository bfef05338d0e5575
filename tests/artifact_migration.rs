//! Schema-migration guarantees: pinned v1 and v2 installation artefacts
//! (committed under `tests/fixtures/`, written by the pre-redesign and
//! pre-plan runtimes respectively) must load at the current schema with
//! threads-only candidate grids and reproduce the writing build's
//! decisions bit for bit. A pinned v4 artefact, written while the plan
//! grid still had a `B`-packing axis, must load with that axis ignored and
//! decide bit for bit as its writing build did. (The v3 → v4
//! grid-widening fixture lives in `tests/algorithm_equivalence.rs` next to
//! the algorithm-axis suite.)

use std::path::{Path, PathBuf};

use adsala::prelude::*;
use adsala_gemm::plan::Algorithm::{Blocked as B, Strassen, ZOrder as Z};
use adsala_gemm::plan::{Algorithm, BlockScale, PlanPoint};

/// The service's uncapped decision for an f32 GEMM `(m, k, n)` — a thread
/// count is the default-axes plan at that count.
fn decide(service: &AdsalaService, m: u64, k: u64, n: u64) -> PlanDecision {
    service.select_for_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX)
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Decisions recorded from the pre-redesign (v1, PR 2) runtime for the
/// committed fixture: `((m, k, n), threads, predicted_runtime_s bits)`.
const V1_PINNED_DECISIONS: &[((u64, u64, u64), u32, u64)] = &[
    ((64, 64, 64), 2, 0x3ef443b62fa98b82),
    ((1000, 500, 1000), 6, 0x3f323a9371b2c949),
    ((64, 4096, 64), 1, 0x3f6321d6ddf11c85),
    ((128, 512, 128), 6, 0x3f323a9371b2c949),
    ((2000, 64, 2000), 24, 0x3f564e900c3c29ef),
    ((48, 48, 48), 2, 0x3ef443b62fa98b82),
    ((3000, 3000, 3000), 64, 0x3f72ac279008247d),
    ((1, 74000, 1), 1, 0x3f7bca6b6bd223c5),
];

/// Decisions recorded from the pre-plan (v2, PR 5) runtime for the
/// committed fixture, captured immediately before the ExecutionPlan
/// refactor landed.
const V2_PINNED_DECISIONS: &[((u64, u64, u64), u32, u64)] = &[
    ((64, 64, 64), 1, 0x3f1091f6760314da),
    ((1000, 500, 1000), 24, 0x3f4a29c9b3399047),
    ((64, 4096, 64), 1, 0x3f520da6f52e309c),
    ((128, 512, 128), 1, 0x3f2cef4d91414aab),
    ((2000, 64, 2000), 8, 0x3f43885b5df00ac0),
    ((48, 48, 48), 2, 0x3f103753d5a2512d),
    ((3000, 3000, 3000), 96, 0x3f8bdf51e35f8c65),
    ((1, 74000, 1), 1, 0x3f83dbf78a10ef9a),
];

#[test]
fn v1_fixture_loads_at_current_schema_with_model_in_gemm_slot() {
    let art = Artifact::load(&fixture_path("artifact_v1.json")).expect("fixture must load");
    assert_eq!(art.version, Artifact::VERSION, "loaded artefacts carry the current schema");
    assert_eq!(art.machine, "gadi-sim-v1");
    assert!(!art.candidates().is_empty());
    assert!(art.grid.is_threads_only(), "migrated artefacts degrade to threads-only grids");
    assert!(!art.grid.plan_features, "migrated configs were fitted without plan features");
    assert!(art.models.has_dedicated(Routine::Gemm));
    assert!(!art.models.has_dedicated(Routine::Syrk), "migration must not invent models");
    assert!(!art.models.has_dedicated(Routine::Gemv));
}

#[test]
fn v2_fixture_loads_at_current_schema_with_threads_only_grid() {
    let art = Artifact::load(&fixture_path("artifact_v2.json")).expect("fixture must load");
    assert_eq!(art.version, Artifact::VERSION);
    assert_eq!(art.machine, "gadi-sim-v2");
    assert_eq!(art.grid, PlanGrid::threads_only(art.candidates().to_vec()));
    assert!(art.models.has_dedicated(Routine::Gemm));
}

#[test]
fn v1_fixture_decides_bitwise_identically_to_pre_redesign_runtime() {
    let runtime = Artifact::load(&fixture_path("artifact_v1.json"))
        .expect("fixture must load")
        .into_service();
    for &((m, k, n), threads, runtime_bits) in V1_PINNED_DECISIONS {
        let d = decide(&runtime, m, k, n);
        assert_eq!(d.threads(), threads, "thread decision drifted for {m}x{k}x{n}");
        assert!(d.plan.is_threads_only(), "migrated artefacts must emit threads-only plans");
        assert_eq!(
            d.predicted_runtime_s.to_bits(),
            runtime_bits,
            "predicted runtime drifted for {m}x{k}x{n}: {:e}",
            d.predicted_runtime_s
        );
    }
}

#[test]
fn v2_fixture_decides_bitwise_identically_to_pre_plan_runtime() {
    let runtime = Artifact::load(&fixture_path("artifact_v2.json"))
        .expect("fixture must load")
        .into_service();
    for &((m, k, n), threads, runtime_bits) in V2_PINNED_DECISIONS {
        let d = decide(&runtime, m, k, n);
        assert_eq!(d.threads(), threads, "thread decision drifted for {m}x{k}x{n}");
        assert!(d.plan.is_threads_only(), "migrated artefacts must emit threads-only plans");
        assert_eq!(
            d.predicted_runtime_s.to_bits(),
            runtime_bits,
            "predicted runtime drifted for {m}x{k}x{n}: {:e}",
            d.predicted_runtime_s
        );
    }
}

#[test]
fn v1_fixture_serves_identically_through_the_concurrent_service() {
    let art = Artifact::load(&fixture_path("artifact_v1.json")).expect("fixture must load");
    let service = AdsalaService::with_config(
        art.into_bundle().into_shared(),
        ServiceConfig { pool_workers: 1 },
    );
    for &((m, k, n), threads, runtime_bits) in V1_PINNED_DECISIONS {
        let d = decide(&service, m, k, n);
        assert_eq!(d.threads(), threads);
        assert_eq!(d.predicted_runtime_s.to_bits(), runtime_bits);
    }
}

#[test]
fn v2_fixture_serves_identically_through_the_concurrent_service() {
    let art = Artifact::load(&fixture_path("artifact_v2.json")).expect("fixture must load");
    let service = AdsalaService::with_config(
        art.into_bundle().into_shared(),
        ServiceConfig { pool_workers: 1 },
    );
    for &((m, k, n), threads, runtime_bits) in V2_PINNED_DECISIONS {
        let d = decide(&service, m, k, n);
        assert_eq!(d.threads(), threads);
        assert_eq!(d.predicted_runtime_s.to_bits(), runtime_bits);
    }
}

#[test]
fn migrated_fixture_rewrites_at_current_schema_and_round_trips() {
    for name in ["artifact_v1.json", "artifact_v2.json"] {
        let art = Artifact::load(&fixture_path(name)).expect("fixture must load");
        let json = art.to_json().expect("serialise");
        let tag = format!("\"version\":{}", Artifact::VERSION);
        assert!(json.contains(&tag), "rewritten artefacts must carry the current schema ({name})");
        assert!(json.contains("\"models\""), "the per-routine model table must survive");
        assert!(json.contains("\"grid\""), "the candidate plan grid must survive");
        let back = Artifact::from_json(&json).expect("current-schema round trip");
        let a = art.into_service();
        let b = back.into_service();
        for &((m, k, n), _, _) in V1_PINNED_DECISIONS {
            assert_eq!(decide(&a, m, k, n), decide(&b, m, k, n));
        }
    }
}

/// Decisions recorded from the build that wrote `artifact_v4.json` (a small
/// widened install over threads `{1, 2, 4, 8}` whose grid still listed a
/// `B`-packing axis): `((m, k, n), cap, threads, (mc, kc, nc) percent,
/// algorithm, predicted_runtime_s bits)` for f32 GEMM, with `None` the
/// uncapped decision. Every point has the dispatched ISA.
type V4Pin = ((u64, u64, u64), Option<u32>, u32, (u32, u32, u32), Algorithm, u64);
#[rustfmt::skip]
const V4_PINNED_DECISIONS: &[V4Pin] = &[
    ((2048, 2048, 2048), Some(1), 1, (100, 100, 100), B, 0x3fc1bb891ca1a160),
    ((2048, 2048, 2048), Some(3), 3, (100, 100, 100), B, 0x3fa985dcd8cbf327),
    ((2048, 2048, 2048), None, 8, (100, 100, 100), B, 0x3f9fe61ea2ecbc82),
    ((4096, 4096, 4096), Some(1), 1, (100, 100, 100), Strassen { cutoff: 384 }, 0x3fe2f8b2049d1acb),
    ((4096, 4096, 4096), Some(3), 3, (100, 100, 100), Strassen { cutoff: 384 }, 0x3fcb06eae11e66a7),
    ((4096, 4096, 4096), None, 8, (100, 100, 100), Strassen { cutoff: 384 }, 0x3fbfffd035ef4f88),
    ((1536, 1536, 1536), Some(1), 1, (100, 100, 100), B, 0x3fa83af8fe4d7356),
    ((1536, 1536, 1536), Some(3), 3, (100, 100, 100), B, 0x3f8ea079063fcdc9),
    ((1536, 1536, 1536), None, 8, (100, 100, 100), B, 0x3f84227a94a7c6b4),
    ((32, 32, 32), Some(1), 1, (100, 100, 100), Z, 0x3ee6dcb34f7b1995),
    ((32, 32, 32), Some(3), 1, (100, 100, 100), Z, 0x3ee6dcb34f7b1995),
    ((32, 32, 32), None, 1, (100, 100, 100), Z, 0x3ee6dcb34f7b1995),
    ((64, 64, 64), Some(1), 1, (100, 100, 100), B, 0x3f18db866db01ca1),
    ((64, 64, 64), Some(3), 2, (100, 100, 100), B, 0x3f13da86ba76a7a3),
    ((64, 64, 64), None, 2, (100, 100, 100), B, 0x3f13da86ba76a7a3),
    ((1000, 500, 1000), Some(1), 1, (100, 100, 100), B, 0x3f6149767a5bf171),
    ((1000, 500, 1000), Some(3), 3, (100, 100, 100), B, 0x3f47cef0491f30ff),
    ((1000, 500, 1000), None, 8, (100, 100, 100), B, 0x3f43bd1c9fbd976c),
    ((64, 4096, 64), Some(1), 1, (100, 100, 100), B, 0x3f6007e8f4c243be),
    ((64, 4096, 64), Some(3), 3, (100, 200, 100), B, 0x3f533de083167c0e),
    ((64, 4096, 64), None, 4, (100, 200, 100), B, 0x3f533de083167c0e),
    ((128, 512, 128), Some(1), 1, (100, 100, 100), B, 0x3f3c2ace7dc8e09a),
    ((128, 512, 128), Some(3), 3, (100, 100, 100), B, 0x3f2fd2a9bf31ab51),
    ((128, 512, 128), None, 4, (100, 100, 100), B, 0x3f2fd2a9bf31ab51),
    ((2000, 64, 2000), Some(1), 1, (100, 100, 100), B, 0x3f898d523942043e),
    ((2000, 64, 2000), Some(3), 3, (100, 100, 100), B, 0x3f6b9660a7f5eb97),
    ((2000, 64, 2000), None, 8, (100, 100, 100), B, 0x3f5de5e82dc259e9),
    ((768, 768, 768), Some(1), 1, (100, 100, 100), B, 0x3f5a37f86b5f6cc0),
    ((768, 768, 768), Some(3), 3, (100, 200, 100), B, 0x3f4814e91087fade),
    ((768, 768, 768), None, 8, (100, 200, 100), B, 0x3f47f79a0d454ade),
    ((3000, 3000, 3000), Some(1), 1, (100, 100, 100), B, 0x3fd43fe36271e8da),
    ((3000, 3000, 3000), Some(3), 3, (100, 100, 100), B, 0x3fbcbe6d964391b1),
    ((3000, 3000, 3000), None, 8, (100, 100, 100), B, 0x3fb23d978e730f94),
    ((1, 4000, 1), Some(1), 1, (100, 200, 100), Z, 0x3f3180d7afac2999),
    ((1, 4000, 1), Some(3), 1, (100, 200, 100), Z, 0x3f3180d7afac2999),
    ((1, 4000, 1), None, 1, (100, 200, 100), Z, 0x3f3180d7afac2999),
];

/// The v4 fixture names the deleted `B`-packing axis; loading ignores
/// that key and keeps everything else, so rewriting the document drops
/// exactly that key.
#[test]
fn v4_fixture_with_a_packing_axis_loads_with_that_axis_ignored() {
    let path = fixture_path("artifact_v4.json");
    let json = std::fs::read_to_string(&path).expect("fixture must read");
    let packing = "\"packing\":[\"SharedB\"],";
    assert_eq!(json.matches(packing).count(), 1, "the fixture predates the axis's deletion");
    let art = Artifact::load(&path).expect("fixture must load");
    assert_eq!(art.version, Artifact::VERSION);
    assert_eq!(art.machine, "gadi-sim-v4");
    assert_eq!(art.grid, PlanGrid::widened(vec![1, 2, 4, 8], 384));
    assert_eq!(art.to_json().expect("serialise"), json.replacen(packing, "", 1));
}

#[test]
fn v4_fixture_decides_bitwise_identically_to_its_writing_build() {
    let art = Artifact::load(&fixture_path("artifact_v4.json")).expect("fixture must load");
    let service = AdsalaService::with_config(
        art.into_bundle().into_shared(),
        ServiceConfig { pool_workers: 1 },
    );
    for &((m, k, n), cap, threads, (mc, kc, nc), algorithm, bits) in V4_PINNED_DECISIONS {
        let shape = OpShape::gemm(Precision::F32, m, k, n);
        let d = service.select_for_capped(shape, cap.unwrap_or(u32::MAX));
        let point = PlanPoint {
            blocking: BlockScale::new(mc, kc, nc),
            algorithm,
            ..PlanPoint::threads_only(threads)
        };
        let context = format!("{m}x{k}x{n} cap {cap:?}");
        assert_eq!(d.plan, point.materialise(Precision::F32), "plan drifted for {context}");
        assert_eq!(
            d.predicted_runtime_s.to_bits(),
            bits,
            "predicted runtime drifted for {context}: {:e}",
            d.predicted_runtime_s
        );
    }
}
