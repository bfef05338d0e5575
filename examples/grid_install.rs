//! Grid install smoke: train over the widened execution-plan grid
//! (threads × cache blocking × algorithm) on the simulated Gadi node,
//! round-trip the versioned artefact, and serve full-plan decisions plus
//! one real host GEMM.
//!
//! This is the CI guard for the plan-candidate machinery: gathering over
//! a non-degenerate `PlanGrid`, appending the plan axes to the feature
//! vector, persisting the grid inside the artefact, and executing the
//! selected `ExecutionPlan` end to end.
//!
//! ```sh
//! cargo run --release --example grid_install
//! ```

use adsala::install::{InstallConfig, Installation};
use adsala::prelude::*;
use adsala::RowLayout;
use adsala_gemm::dispatch::{GemmArgs, OpRequest};
use adsala_machine::{MachineModel, SimTimer};

fn main() {
    let timer = SimTimer::new(MachineModel::gadi());

    // Four thread rungs keep the sweep cheap while every non-thread axis
    // of the grid reaches the host plan it decides.
    let mut cfg = InstallConfig::quick();
    cfg.gather.n_shapes = 120;
    cfg.gather.grid = Some(PlanGrid::widened(vec![1, 8, 24, 96], 384));
    println!("installing over the widened plan grid (threads x blocking x algorithm)...");
    let install = Installation::run(&timer, &cfg).expect("grid install");
    assert!(!install.grid.is_threads_only(), "the gathered grid must keep its plan axes");
    assert_ne!(
        RowLayout::of(&install.grid),
        RowLayout::Table2,
        "grid gathering must put the plan axes in the feature rows"
    );
    println!(
        "selected {:?} over {} candidate plans per shape",
        install.selected,
        install.grid.len()
    );

    // The grid must survive the artefact round trip at the current schema.
    let artifact = install.to_artifact();
    let json = artifact.to_json().expect("serialise");
    assert!(json.contains(&format!("\"version\":{}", Artifact::VERSION)));
    let back = Artifact::from_json(&json).expect("artefact round trip");
    assert!(!back.grid.is_threads_only(), "the reloaded artefact keeps the plan grid");

    // Serve decisions: full plans, not just thread counts.
    let service = back.into_service();
    let mut non_default = 0usize;
    for (m, k, n) in [(64u64, 2048, 64), (64, 64, 4096), (1000, 500, 1000), (4000, 4000, 4000)] {
        let d = service.select_for_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX);
        non_default += usize::from(!d.plan.is_threads_only());
        println!(
            "GEMM {m}x{k}x{n}: [{}] predicted {:.3} ms",
            d.plan.describe(),
            d.predicted_runtime_s * 1e3
        );
    }
    println!("{non_default} of 4 decisions moved a non-thread plan axis");
    assert!(non_default > 0, "a grid install must move some decision off the thread axis");

    // Execute one real host GEMM under the learned plan; whatever the
    // model chose must run correctly (degrading to scalar if forced).
    let (m, n, k) = (160usize, 128, 192);
    let a: Vec<f32> = (0..m * k).map(|i| ((i % 7) as f32 - 3.0) * 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i % 5) as f32 - 2.0) * 0.25).collect();
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let (d, stats) = service.run(&mut req).expect("well-formed sgemm");
    println!(
        "host SGEMM {m}x{k}x{n}: requested [{}], executed isa={} degraded={}",
        d.plan.describe(),
        stats.exec.kernel_isa,
        stats.plan_degraded
    );
    let expected: f32 =
        (0..k).map(|p| ((p % 7) as f32 - 3.0) * 0.5 * (((p * n) % 5) as f32 - 2.0) * 0.25).sum();
    assert!(
        (c[0] - expected).abs() <= 1e-3 * (1.0 + expected.abs()),
        "c[0]={} expected={expected}",
        c[0]
    );
    println!("result verified. done.");
}
