//! Quickstart: train ADSALA on a simulated HPC node, save/load the
//! artefacts, and run a real ML-thread-selected GEMM on this machine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adsala::install::{InstallConfig, Installation};
use adsala::{GemmArgs, OpRequest, OpShape, Precision, RunOptions};
use adsala_machine::{MachineModel, SimTimer};

fn main() {
    // 1. Pick a machine. The simulated Gadi node (2× Cascade Lake, 96
    //    hardware threads, Intel-MKL-like BLAS behaviour) stands in for
    //    the paper's testbed; swap in `HostTimer::with_max_threads(n)` to gather
    //    timings from this machine's real cores instead.
    let timer = SimTimer::new(MachineModel::gadi());
    println!("machine: {}", adsala_machine::GemmTimer::name(&timer));

    // 2. Install: sample shapes, time them, preprocess, tune model
    //    families, select by estimated speedup. `quick()` keeps this to a
    //    few seconds; `InstallConfig::paper()` is the full-size run.
    println!("installing (gather -> preprocess -> tune -> select)...");
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("install");
    println!("selected model family: {:?}", install.selected);
    for r in &install.reports {
        println!(
            "  {:<18} NRMSE {:.3}  est. mean speedup {:.2}x  (eval {:.1} us)",
            r.kind.name(),
            r.test_nrmse,
            r.est_mean_speedup,
            r.eval_time_us
        );
    }

    // 3. Persist the two artefacts (config + model), like the paper's
    //    install step, then reload them as a serving handle.
    let artifact = install.to_artifact();
    let path = std::env::temp_dir().join("adsala_quickstart.json");
    artifact.save(&path).expect("save artifact");
    println!("artifact saved to {}", path.display());
    let gemm = adsala::Artifact::load(&path).expect("load artifact").into_service();

    // 4. Ask for thread decisions. Note the small/skewed shapes avoiding
    //    the 96-thread maximum.
    for (m, k, n) in [(64, 2048, 64), (64, 64, 4096), (4000, 4000, 4000)] {
        let d = gemm.select_for_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX);
        println!(
            "GEMM {m}x{k}x{n}: chose {} threads (predicted {:.3} ms)",
            d.threads(),
            d.predicted_runtime_s * 1e3
        );
    }

    // 5. Execute a real SGEMM on this machine with the chosen count
    //    (clamped to the host's cores).
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u32;
    let (m, k, n) = (256usize, 512usize, 256usize);
    let a = vec![1.0f32; m * k];
    let b = vec![0.5f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let (decision, stats) =
        gemm.run_with(&mut req, RunOptions::with_host_cap(host_cores)).expect("well-formed sgemm");
    println!(
        "host SGEMM {m}x{k}x{n}: ML chose {} threads, ran on {} ({} kernel calls, {:.2} MB packed)",
        decision.threads(),
        stats.exec.threads_used,
        stats.exec.kernel_calls,
        stats.exec.packed_bytes() as f64 / 1e6
    );
    assert!((c[0] - k as f32 * 0.5).abs() < 1e-2);
    println!("result verified. done.");
}
