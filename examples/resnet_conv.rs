//! The paper's motivating workload: small/irregular GEMMs from
//! convolution lowering (ResNet uses GEMMs with operands like 64×3000 —
//! §I). A training step calls the same-shaped GEMM thousands of times, so
//! ADSALA's memoisation amortises the model evaluation to (near) zero.
//!
//! ```sh
//! cargo run --release --example resnet_conv
//! ```

use adsala::install::{InstallConfig, Installation};
use adsala::{OpShape, Precision};
use adsala_machine::{GemmTimer, MachineModel, SimTimer};
use adsala_sampling::GemmShape;

/// im2col-lowered convolution GEMM shapes of a ResNet-ish forward pass:
/// (output pixels × patch) · (patch × filters).
fn resnet_layer_shapes() -> Vec<(&'static str, GemmShape)> {
    vec![
        ("conv1 7x7/2", GemmShape::new(3136, 147, 64)),
        ("conv2.x 1x1", GemmShape::new(3136, 64, 64)),
        ("conv2.x 3x3", GemmShape::new(3136, 576, 64)),
        ("conv3.x 1x1", GemmShape::new(784, 128, 128)),
        ("conv3.x 3x3", GemmShape::new(784, 1152, 128)),
        ("conv4.x 3x3", GemmShape::new(196, 2304, 256)),
        ("conv5.x 3x3", GemmShape::new(49, 4608, 512)),
        ("fc 64x3000", GemmShape::new(64, 3000, 1000)),
    ]
}

fn main() {
    let timer = SimTimer::new(MachineModel::gadi());
    println!("training ADSALA for {}...", timer.name());
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("install");
    let gemm = install.into_service();
    let p_max = timer.max_threads();

    println!("\nper-layer thread choices and simulated speedups (batch of 100 calls):");
    println!(
        "{:<14} {:>18} {:>8} {:>14} {:>14} {:>9}",
        "layer", "m x k x n", "threads", "t(max) ms", "t(ML) ms", "speedup"
    );
    let mut total_max = 0.0;
    let mut total_ml = 0.0;
    for (name, shape) in resnet_layer_shapes() {
        let calls = 100;
        let t_max = timer.time(shape, p_max, 5) * calls as f64;
        // First call evaluates the model; the next 99 hit the memo.
        let op = OpShape::gemm(Precision::F32, shape.m, shape.k, shape.n);
        let d = gemm.select_for_capped(op, u32::MAX);
        for _ in 1..calls {
            let again = gemm.select_for_capped(op, u32::MAX);
            assert!(again.memoised, "repeated shape must hit the memo");
        }
        let t_ml = timer.time(shape, d.threads(), 5) * calls as f64;
        total_max += t_max;
        total_ml += t_ml;
        println!(
            "{:<14} {:>18} {:>8} {:>14.3} {:>14.3} {:>8.2}x",
            name,
            format!("{}x{}x{}", shape.m, shape.k, shape.n),
            d.threads(),
            t_max * 1e3,
            t_ml * 1e3,
            t_max / t_ml
        );
    }
    println!(
        "\nwhole pass: {:.1} ms with max threads, {:.1} ms with ADSALA ({:.2}x), {} model evaluations for {} GEMM calls",
        total_max * 1e3,
        total_ml * 1e3,
        total_max / total_ml,
        gemm.stats().evaluations,
        resnet_layer_shapes().len() * 100
    );
}
