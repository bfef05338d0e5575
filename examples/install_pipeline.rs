//! Walk through the full installation workflow (the paper's Fig. 2) step
//! by step on the simulated Setonix node, printing what each stage does:
//! domain sampling, timing collection, preprocessing, per-family tuning,
//! and speedup-based model selection.
//!
//! ```sh
//! cargo run --release --example install_pipeline
//! ```

use adsala::gather::{GatherConfig, TrainingData};
use adsala::install::{InstallConfig, Installation};
use adsala::preprocess::fit_preprocess;
use adsala::RowLayout;
use adsala_machine::{GemmTimer, MachineModel, SimTimer};
use adsala_sampling::Precision;

fn main() {
    let timer = SimTimer::new(MachineModel::setonix());
    println!("=== ADSALA installation on {} ===\n", timer.name());

    // --- Stage 1: data gathering -------------------------------------
    let gather_cfg = GatherConfig { n_shapes: 200, reps: 3, ..GatherConfig::quick() };
    println!(
        "stage 1 — gathering: {} Halton shapes <= {} MB, {} reps each",
        gather_cfg.n_shapes,
        gather_cfg.cap.bytes / 1_000_000,
        gather_cfg.reps
    );
    let data = TrainingData::gather(&timer, &gather_cfg);
    println!(
        "  -> {} timed configurations over a {}-rung thread ladder (max {})",
        data.len(),
        data.grid.threads.len(),
        data.max_threads
    );
    let small = data.shapes.iter().filter(|s| s.memory_bytes(Precision::F32) < 100_000_000).count();
    println!("  -> {small} of {} shapes sit in the 0-100 MB band", data.shapes.len());
    let optimal = data.optimal_threads();
    let sub_half = optimal.iter().filter(|(_, p)| *p < data.max_threads / 2).count();
    println!(
        "  -> measured-optimal thread count below half max for {sub_half}/{} shapes",
        optimal.len()
    );

    // --- Stage 2: preprocessing ---------------------------------------
    println!("\nstage 2 — preprocessing (Yeo-Johnson -> scale -> LOF -> corr-prune):");
    let fitted = fit_preprocess(&data).expect("preprocess");
    println!(
        "  -> {} rows in, {} after LOF outlier removal",
        fitted.report.rows_in, fitted.report.rows_after_lof
    );
    let names = RowLayout::of(&data.grid).names();
    let kept: Vec<&str> = fitted.report.features_kept.iter().map(|&i| names[i]).collect();
    println!(
        "  -> {} of {} features survive correlation pruning: {:?}",
        kept.len(),
        fitted.report.features_in,
        kept
    );

    // --- Stage 3+4: tuning and selection -------------------------------
    println!("\nstage 3 — tuning model families (this is the slow part)...");
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("install");
    println!("\nstage 4 — speedup-based selection:");
    println!(
        "{:<18} {:>8} {:>12} {:>10} {:>10}",
        "model", "NRMSE", "ideal-mean", "eval-us", "est-mean"
    );
    for r in &install.reports {
        println!(
            "{:<18} {:>8.3} {:>12.3} {:>10.2} {:>10.3}",
            r.kind.name(),
            r.test_nrmse,
            r.ideal_mean_speedup,
            r.eval_time_us,
            r.est_mean_speedup
        );
    }
    println!("\nwinner: {:?} — refitted on the full dataset and bundled", install.selected);

    let artifact = install.to_artifact();
    let json = artifact.to_json().expect("serialise");
    println!(
        "artifact: {} bytes of JSON (config + trained model), {} candidate thread counts",
        json.len(),
        artifact.candidates().len()
    );
}
