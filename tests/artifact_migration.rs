//! Schema-migration guarantees: pinned v1 and v2 installation artefacts
//! (committed under `tests/fixtures/`, written by the pre-redesign and
//! pre-plan runtimes respectively) must load at the current schema with
//! threads-only candidate grids and reproduce the writing build's
//! decisions bit for bit. (The v3 → v4 grid-widening fixture lives in
//! `tests/algorithm_equivalence.rs` next to the algorithm-axis suite.)

use std::path::{Path, PathBuf};

use adsala::prelude::*;

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
        ServiceConfig { pool_workers: 1, ..ServiceConfig::default() },
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
        ServiceConfig { pool_workers: 1, ..ServiceConfig::default() },
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
