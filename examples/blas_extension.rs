//! The paper's future work, realised: ML-driven thread selection for
//! BLAS routines beyond GEMM (SYRK and GEMV).
//!
//! Each routine maps its dimensions into the GEMM feature space
//! (`OpShape::gemm_equivalent`: SYRK `(m,k)` ↦ `(m,k,m)`, GEMV `(m,n)` ↦
//! `(m,n,1)`), so the *unchanged* ADSALA installation pipeline, fed by a
//! routine timer, trains a per-routine thread selector.
//!
//! ```sh
//! cargo run --release --example blas_extension
//! ```

use adsala::install::{InstallConfig, Installation};
use adsala::{OpShape, Precision, Routine};
use adsala_machine::{GemmTimer, MachineModel, SimTimer};
use adsala_sampling::GemmShape;

fn main() {
    let base = MachineModel::setonix();
    for op in [Routine::Syrk, Routine::Gemv] {
        let timer = SimTimer::for_routine(base.clone(), op);
        println!("=== {} ===", timer.name());
        let install = Installation::run(&timer, &InstallConfig::quick()).expect("install");
        println!("selected model family: {:?}", install.selected);
        let runtime = install.into_service();
        let p_max = timer.max_threads();

        // Probe shapes, given in each routine's own dimension convention.
        let probes: Vec<(String, OpShape)> = match op {
            Routine::Syrk => [(2000u64, 2000u64), (4000, 200), (200, 4000), (500, 500)]
                .iter()
                .map(|&(m, k)| (format!("SYRK m={m} k={k}"), OpShape::syrk(Precision::F32, m, k)))
                .collect(),
            Routine::Gemv => [(8000u64, 8000u64), (30_000, 500), (500, 30_000), (1000, 1000)]
                .iter()
                .map(|&(m, n)| (format!("GEMV m={m} n={n}"), OpShape::gemv(Precision::F32, m, n)))
                .collect(),
            Routine::Gemm => unreachable!(),
        };

        println!(
            "{:<22} {:>8} {:>14} {:>14} {:>9}",
            "routine", "threads", "t(max) us", "t(ML) us", "speedup"
        );
        for (label, call) in probes {
            let d = runtime.select_for_capped(call, u32::MAX);
            let (m, k, n) = call.gemm_equivalent();
            let shape = GemmShape::new(m, k, n);
            let t_max = timer.time(shape, p_max, 5);
            let t_ml = timer.time(shape, d.threads(), 5);
            println!(
                "{:<22} {:>8} {:>14.1} {:>14.1} {:>8.2}x",
                label,
                d.threads(),
                t_max * 1e6,
                t_ml * 1e6,
                t_max / t_ml
            );
        }
        println!();
    }
    println!("note how GEMV selections below the largest matrix sit at the bandwidth knee");
    println!("(tens of threads), while SYRK behaves like GEMM — per-routine response curves");
    println!("are exactly why the paper proposes per-routine models.");
}
