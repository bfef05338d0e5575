//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! `repro <artefact>` makes one entry of [`ARTEFACTS`], the single list
//! the dispatch, the `all` sequence and the usage text are read from;
//! `repro help` prints it. Host performance is measured by `perfbench/`
//! (see `BENCHMARK.json`), not by this binary.
//!
//! Results are printed to stdout and written as CSV under `results/`
//! (or `$ADSALA_RESULTS_DIR`). Trained installations are cached in
//! `install_*.json` there.

use std::time::Instant;

use adsala::gather::{histogram, GatherConfig, ThreadLadder, TrainingData};
use adsala::install::{InstallConfig, Installation};
use adsala::preprocess::{fit_preprocess_with, PreprocessOptions};

use adsala::speedup::{bucket_mean, paper_buckets, SpeedupStats};
use adsala::RowLayout;
use adsala_bench::{
    grid_means, mean_runtime, render_grid, render_histogram, results_dir, sim_timer, sqrt_edges,
    write_csv, Machine, SavedInstall,
};
use adsala_machine::{Affinity, GemmTimer};
use adsala_ml::{ModelKind, Regressor};
use adsala_sampling::{DomainSampler, GemmShape, MemoryCap, Precision, PredesignedGrid};

/// Something `repro <name>` regenerates: name, one-line description, how.
type Artefact = (&'static str, &'static str, fn());

/// Every artefact, in paper order; `all` is last and runs the rest.
const ARTEFACTS: &[Artefact] = &[
    ("fig1", "optimal-thread histogram, SGEMM <= 100 MB, Gadi", fig1),
    ("fig4", "feature distributions before/after Yeo-Johnson (Setonix)", fig4),
    ("fig7", "core- vs thread-based affinity runtime curves", fig7),
    ("fig8", "optimal-thread histogram, min(m,k,n) < 1000, Setonix", fig8),
    ("fig9", "optimal-thread heat-maps, both machines", fig9),
    ("table3", "model comparison table, Setonix", || model_table(Machine::Setonix)),
    ("table4", "model comparison table, Gadi", || model_table(Machine::Gadi)),
    ("table5", "speedup statistics, hyper-threading on", || speedup_table(true)),
    ("table6", "speedup statistics, hyper-threading off", || speedup_table(false)),
    ("plans", "grid-trained ExecutionPlan choice table (beyond the paper)", plan_table),
    ("fig10", "speedup heat-maps over (m,k),(m,n),(k,n)", fig10),
    ("fig11", "GFLOPS vs memory bucket, Setonix (BLIS vs ML)", || gflops_buckets(Machine::Setonix)),
    ("fig12", "GFLOPS vs memory bucket, Gadi (MKL vs ML)", || gflops_buckets(Machine::Gadi)),
    ("fig13", "predesigned-shape GFLOPS sweeps, Setonix", || predesigned(Machine::Setonix)),
    ("fig14", "predesigned-shape GFLOPS sweeps, Gadi", || predesigned(Machine::Gadi)),
    ("table7", "profiler-style sync/copy/kernel breakdown, Gadi", table7),
    ("ops", "SYRK/GEMV thread selection (the paper's future work)", ops_extension),
    ("learning-curve", "validation NRMSE vs training-set size, Gadi", learning_curve),
    ("ablation", "`ablation <name>` runs one ablation, no name runs them all", ablation),
    ("all", "everything above, in this order", all),
];

fn main() {
    let cmd = std::env::args().nth(1);
    let Some(cmd) = cmd.as_deref() else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    if matches!(cmd, "help" | "-h" | "--help") {
        print!("{}", usage());
        return;
    }
    let Some(&(_, _, run)) = ARTEFACTS.iter().find(|(name, ..)| *name == cmd) else {
        eprint!("unknown artefact `{cmd}`\n{}", usage());
        std::process::exit(2);
    };
    let started = Instant::now();
    run();
    eprintln!("[repro] {cmd} finished in {:.1}s", started.elapsed().as_secs_f64());
}

/// The usage text: one line per table entry, then the ablation names.
fn usage() -> String {
    let mut text = String::from("usage: repro <artefact>\n\n");
    for (name, about, _) in ARTEFACTS {
        text += &format!("  {name:<15} {about}\n");
    }
    let ablations: Vec<&str> = ABLATIONS.iter().map(|&(name, _)| name).collect();
    text + &format!("\nablations: {}\n", ablations.join(" | "))
}

/// What `all` runs: every entry before it, in table order.
fn all_sequence() -> &'static [Artefact] {
    let (_all, rest) = ARTEFACTS.split_last().expect("the table is not empty");
    rest
}

fn all() {
    for (_, _, run) in all_sequence() {
        run();
    }
}

/// Sample `n` shapes under `cap` from the scrambled Halton domain.
fn sample_shapes(cap: MemoryCap, n: usize, seed: u64) -> Vec<GemmShape> {
    DomainSampler::new(cap, Precision::F32, seed).sample(n)
}

/// The service's uncapped decision for an f32 GEMM of `shape` — the call
/// the paper's runtime makes before every SGEMM.
fn decide(service: &adsala::AdsalaService, shape: GemmShape) -> adsala::PlanDecision {
    let shape = adsala::OpShape::gemm(adsala::Precision::F32, shape.m, shape.k, shape.n);
    service.select_for_capped(shape, u32::MAX)
}

/// Render the service's rolling predicted-vs-measured error as one
/// `[service]` line (the feedback-loop counter every serve now carries).
fn prediction_line(label: &str, p: &adsala_gemm::PredictionErrorStats) -> String {
    if p.samples == 0 {
        return format!("[service] {label} prediction error: no predicted ops observed");
    }
    format!(
        "[service] {label} prediction error: {:.1}% mean abs over {} ops \
         (mean log ratio {:+.3}, {:.0}% slower-than-predicted)",
        p.mean_abs_pct(),
        p.samples,
        p.mean_log_ratio,
        p.overshoot_fraction * 100.0
    )
}

// ---------------------------------------------------------------- fig 1

/// Fig. 1: histogram of the measured-optimal thread count for SGEMM with
/// memory ≤ 100 MB on the Gadi node (the paper's motivating observation).
fn fig1() {
    banner("Fig. 1 — optimal thread count histogram, SGEMM <= 100 MB, Gadi");
    let model = Machine::Gadi.model(true);
    let shapes = sample_shapes(MemoryCap::paper_small(), 500, 0xF1);
    let optimal: Vec<u32> = shapes.iter().map(|&s| model.optimal_threads(s)).collect();
    let (edges, counts) = histogram(&optimal, model.max_threads(), 16);
    println!(
        "{}",
        render_histogram("optimal thread count (96 = all hardware threads)", &edges, &counts)
    );
    let below_half = optimal.iter().filter(|&&p| p < 48).count();
    println!(
        "{} of {} shapes ({:.0}%) are fastest below half the maximum thread count",
        below_half,
        optimal.len(),
        100.0 * below_half as f64 / optimal.len() as f64
    );
    let rows: Vec<String> = shapes
        .iter()
        .zip(&optimal)
        .map(|(s, p)| format!("{},{},{},{}", s.m, s.k, s.n, p))
        .collect();
    let path = write_csv("fig1_optimal_threads_gadi_100mb.csv", "m,k,n,optimal_threads", &rows);
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- fig 4

/// Fig. 4: per-feature skewness before and after the Yeo-Johnson
/// transform on Setonix gather data (≤ 500 MB).
fn fig4() {
    banner("Fig. 4 — feature distributions before/after Yeo-Johnson, Setonix <= 500 MB");
    let timer = sim_timer(Machine::Setonix, true, Affinity::CoreBased);
    let cfg = GatherConfig { n_shapes: 250, reps: 3, ..GatherConfig::paper() };
    let data = TrainingData::gather(&timer, &cfg);
    let fitted = fit_preprocess_with(&data, PreprocessOptions::default()).expect("preprocess");
    println!("{:<26} {:>10} {:>12} {:>12}", "feature", "lambda", "skew before", "skew after");
    let names = RowLayout::of(&data.grid).names();
    let mut rows = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let lambda = fitted.config.yeo_johnson.lambdas[i];
        let (before, after) = (fitted.report.skew_before[i], fitted.report.skew_after[i]);
        println!("{name:<26} {lambda:>10.3} {before:>12.3} {after:>12.3}");
        rows.push(format!("{name},{lambda:.6},{before:.6},{after:.6}"));
    }
    let mean_abs = |v: &[f64]| v.iter().map(|s| s.abs()).sum::<f64>() / v.len() as f64;
    println!(
        "\nmean |skewness|: {:.2} -> {:.2}",
        mean_abs(&fitted.report.skew_before),
        mean_abs(&fitted.report.skew_after)
    );
    let path =
        write_csv("fig4_yeo_johnson_skewness.csv", "feature,lambda,skew_before,skew_after", &rows);
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- fig 7

/// Fig. 7: mean GEMM runtime vs thread count under core-based and
/// thread-based affinity, on both machines (log-scale y in the paper).
fn fig7() {
    banner("Fig. 7 — thread affinity comparison (mean runtime over test shapes)");
    for machine in [Machine::Setonix, Machine::Gadi] {
        let shapes = sample_shapes(MemoryCap::paper_training(), 60, 0xF7);
        let max = machine.model(true).max_threads();
        let ladder = ThreadLadder::geometric(max);
        println!("\n{} (max {} threads)", machine.name(), max);
        println!(
            "{:>8} {:>16} {:>16} {:>8}",
            "threads", "core-based (s)", "thread-based (s)", "ratio"
        );
        let core = sim_timer(machine, true, Affinity::CoreBased);
        let thread = sim_timer(machine, true, Affinity::ThreadBased);
        let mut rows = Vec::new();
        for &p in &ladder.counts {
            let tc = mean_runtime(&core, &shapes, p);
            let tt = mean_runtime(&thread, &shapes, p);
            println!("{:>8} {:>16.6e} {:>16.6e} {:>8.3}", p, tc, tt, tt / tc);
            rows.push(format!("{},{},{:.9e},{:.9e}", machine.name(), p, tc, tt));
        }
        write_csv(
            &format!("fig7_affinity_{}.csv", machine.name()),
            "machine,threads,core_based_s,thread_based_s",
            &rows,
        );
    }
    println!("\nratio > 1 means core-based affinity is faster (expected below half max threads).");
}

// ---------------------------------------------------------------- fig 8

/// Fig. 8: optimal-thread histogram restricted to shapes with at least
/// one dimension below 1000 (Setonix, ≤ 500 MB).
fn fig8() {
    banner("Fig. 8 — optimal threads when min(m,k,n) < 1000, Setonix <= 500 MB");
    let model = Machine::Setonix.model(true);
    let shapes: Vec<GemmShape> = sample_shapes(MemoryCap::paper_training(), 700, 0xF8)
        .into_iter()
        .filter(|s| s.min_dim() < 1000)
        .collect();
    let optimal: Vec<u32> = shapes.iter().map(|&s| model.optimal_threads(s)).collect();
    let (edges, counts) = histogram(&optimal, model.max_threads(), 16);
    println!(
        "{}",
        render_histogram("optimal thread count (256 = all hardware threads)", &edges, &counts)
    );
    let below_half = optimal.iter().filter(|&&p| p < 128).count();
    println!(
        "{} of {} constrained shapes ({:.0}%) are fastest below half the maximum",
        below_half,
        optimal.len(),
        100.0 * below_half as f64 / optimal.len() as f64
    );
    let rows: Vec<String> = shapes
        .iter()
        .zip(&optimal)
        .map(|(s, p)| format!("{},{},{},{}", s.m, s.k, s.n, p))
        .collect();
    write_csv("fig8_optimal_threads_setonix_small_dim.csv", "m,k,n,optimal_threads", &rows);
}

// ---------------------------------------------------------------- fig 9

/// Fig. 9: heat-maps of the optimal thread count against (m,k), (m,n) and
/// (k,n) on both machines, sqrt-scaled axes like the paper.
fn fig9() {
    banner("Fig. 9 — optimal-thread heat-maps");
    for machine in [Machine::Setonix, Machine::Gadi] {
        let model = machine.model(true);
        let shapes = sample_shapes(MemoryCap::paper_training(), 600, 0xF9);
        let data: Vec<(GemmShape, u32)> =
            shapes.iter().map(|&s| (s, model.optimal_threads(s))).collect();
        let edges = sqrt_edges(adsala_sampling::DomainSampler::PAPER_MAX_DIM, 6);
        println!("\n=== {} (max {} threads) ===", machine.name(), model.max_threads());
        for (rl, cl, proj) in [
            (
                "m",
                "k",
                Box::new(|s: &GemmShape| (s.m, s.k)) as Box<dyn Fn(&GemmShape) -> (u64, u64)>,
            ),
            ("m", "n", Box::new(|s: &GemmShape| (s.m, s.n))),
            ("k", "n", Box::new(|s: &GemmShape| (s.k, s.n))),
        ] {
            let triples: Vec<(u64, u64, f64)> = data
                .iter()
                .map(|(s, p)| {
                    let (a, b) = proj(s);
                    (a, b, *p as f64)
                })
                .collect();
            let cells = grid_means(&triples, &edges);
            println!("{}", render_grid("mean optimal thread count", rl, cl, &cells, &edges));
        }
        let rows: Vec<String> = data
            .iter()
            .map(|(s, p)| format!("{},{},{},{},{}", machine.name(), s.m, s.k, s.n, p))
            .collect();
        write_csv(
            &format!("fig9_optimal_threads_{}.csv", machine.name()),
            "machine,m,k,n,optimal_threads",
            &rows,
        );
    }
}

// ------------------------------------------------------- tables III / IV

/// Tables III/IV: the eight-family comparison — NRMSE, ideal and
/// estimated speedups, measured evaluation time.
fn model_table(machine: Machine) {
    let which = if machine == Machine::Setonix { "Table III" } else { "Table IV" };
    banner(&format!("{which} — model performance and estimated speedups, {}", machine.name()));
    let saved = SavedInstall::cached(machine, true);
    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "model", "NRMSE", "ideal-mean", "ideal-agg", "eval-us", "est-mean", "est-agg"
    );
    let mut rows = Vec::new();
    for r in &saved.reports {
        println!(
            "{:<18} {:>8.3} {:>10.3} {:>10.3} {:>10.2} {:>10.3} {:>10.3}",
            r.kind.name(),
            r.test_nrmse,
            r.ideal_mean_speedup,
            r.ideal_aggregate_speedup,
            r.eval_time_us,
            r.est_mean_speedup,
            r.est_aggregate_speedup
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.3},{:.4},{:.4}",
            r.kind.name(),
            r.test_nrmse,
            r.ideal_mean_speedup,
            r.ideal_aggregate_speedup,
            r.eval_time_us,
            r.est_mean_speedup,
            r.est_aggregate_speedup
        ));
    }
    println!("\nselected model: {}", saved.selected);
    write_csv(
        &format!(
            "{}_models_{}.csv",
            if machine == Machine::Setonix { "table3" } else { "table4" },
            machine.name()
        ),
        "model,nrmse,ideal_mean,ideal_aggregate,eval_us,est_mean,est_aggregate",
        &rows,
    );
}

// ------------------------------------------------------- tables V / VI

/// Per-shape speedup evaluation on a fresh 174-point Halton set: the
/// machinery behind Tables V/VI and Figs. 10-12. Decisions are served
/// through the shared `AdsalaService` layer, whose cache counters the
/// table summaries report.
struct SpeedupRun {
    /// (shape, bytes, chosen threads, t_orig, t_adsala_incl_eval)
    samples: Vec<(GemmShape, u64, u32, f64, f64)>,
    /// The full execution plan chosen for each sample, in sample order.
    plans: Vec<adsala_gemm::plan::ExecutionPlan>,
    /// The service's counters after serving the whole set (memo traffic,
    /// model sweeps, plan downgrades).
    service: adsala::ServiceStats,
}

fn speedup_run(machine: Machine, ht: bool) -> SpeedupRun {
    let saved = SavedInstall::cached(machine, ht);
    let timer = sim_timer(machine, ht, Affinity::CoreBased);
    // Decision serving only (no sgemm here): a 1-worker pool avoids
    // spawning idle host-parallelism workers per run.
    let service = adsala::AdsalaService::with_config(
        saved.artifact.into_bundle().into_shared(),
        adsala::ServiceConfig { pool_workers: 1 },
    );
    // The paper's evaluation-time overhead for the selected model.
    let eval_s = saved
        .reports
        .iter()
        .find(|r| format!("{:?}", r.kind) == saved.selected)
        .map(|r| r.eval_time_us * 1e-6)
        .unwrap_or(0.0);
    let shapes = sample_shapes(MemoryCap::paper_training(), 174, 0x55AA);
    let p_max = timer.max_threads();
    let decisions: Vec<_> = shapes.iter().map(|&s| decide(&service, s)).collect();
    let samples = shapes
        .iter()
        .zip(&decisions)
        .map(|(&s, d)| {
            let t_orig = timer.time(s, p_max, 10);
            let t_adsala = timer.time(s, d.threads(), 10) + eval_s;
            (s, s.memory_bytes(Precision::F32), d.threads(), t_orig, t_adsala)
        })
        .collect();
    SpeedupRun {
        samples,
        plans: decisions.iter().map(|d| d.plan).collect(),
        service: service.stats(),
    }
}

fn speedup_table(ht: bool) {
    let which = if ht { "Table V (hyper-threading on)" } else { "Table VI (hyper-threading off)" };
    banner(&format!("{which} — ADSALA speedup statistics over 174 fresh shapes"));
    println!(
        "{:<22} {:>14} {:>14} {:>14} {:>14}",
        "statistic", "setonix 0-500", "setonix 0-100", "gadi 0-500", "gadi 0-100"
    );
    let mut columns: Vec<(String, SpeedupStats)> = Vec::new();
    let mut csv_rows: Vec<String> = Vec::new();
    let mut service_lines: Vec<String> = Vec::new();
    // Record which micro-kernel produced the host-side timings of this
    // run (simulated timings ignore it, host timings depend on it): the
    // dispatched ISA, its register tiles, and the probed cache hierarchy
    // behind the derived blocking.
    service_lines.push(format!(
        "[service] kernel dispatch: {}",
        adsala_machine::HostCaches::probe().summary()
    ));
    for machine in [Machine::Setonix, Machine::Gadi] {
        let run = speedup_run(machine, ht);
        service_lines.push(format!(
            "[service] {}: {} lookups ({} hits, {} misses, {} evictions), {} model sweeps",
            machine.name(),
            run.service.cache.lookups(),
            run.service.cache.hits,
            run.service.cache.misses,
            run.service.cache.evictions,
            run.service.evaluations
        ));
        service_lines.push(format!(
            "[service] {} plan downgrades: {}",
            machine.name(),
            run.service.plan_downgrades
        ));
        service_lines.push(prediction_line(machine.name(), &run.service.prediction));
        service_lines.push(format!(
            "[service] {} executed algorithms: {} blocked, {} strassen, {} z-order",
            machine.name(),
            run.service.algorithms.blocked,
            run.service.algorithms.strassen,
            run.service.algorithms.zorder
        ));
        // What the decision layer actually hands the drivers: with the
        // cached threads-only artefacts every plan's non-thread axes stay
        // at host defaults; a grid-trained artefact (see `repro plans`)
        // diversifies them.
        let distinct: std::collections::HashSet<_> = run.plans.iter().collect();
        let non_default = run.plans.iter().filter(|p| !p.is_threads_only()).count();
        service_lines.push(format!(
            "[service] {} plans: {} distinct over {} shapes, {} with non-default axes",
            machine.name(),
            distinct.len(),
            run.plans.len(),
            non_default
        ));
        for cap in [500_000_000u64, 100_000_000] {
            let speedups: Vec<f64> = run
                .samples
                .iter()
                .filter(|(_, bytes, _, _, _)| *bytes <= cap)
                .map(|(_, _, _, orig, ads)| orig / ads)
                .collect();
            columns.push((
                format!("{} 0-{}MB", machine.name(), cap / 1_000_000),
                SpeedupStats::from_samples(&speedups),
            ));
        }
        for (s, _bytes, p, orig, ads) in &run.samples {
            csv_rows.push(format!(
                "{},{},{},{},{},{},{:.9e},{:.9e}",
                machine.name(),
                ht,
                s.m,
                s.k,
                s.n,
                p,
                orig,
                ads
            ));
        }
    }
    type StatRow = (&'static str, fn(&SpeedupStats) -> f64);
    let stat_rows: [StatRow; 7] = [
        ("Mean Speedup", |s| s.mean),
        ("Standard Deviation", |s| s.std_dev),
        ("Min Speedup", |s| s.min),
        ("25th Percentile", |s| s.p25),
        ("50th Percentile", |s| s.p50),
        ("75th Percentile", |s| s.p75),
        ("Max Speedup", |s| s.max),
    ];
    for (name, f) in stat_rows {
        print!("{name:<22}");
        for (_, stats) in &columns {
            print!(" {:>14.2}", f(stats));
        }
        println!();
    }
    println!();
    for line in &service_lines {
        println!("{line}");
    }
    write_csv(
        &format!("table{}_speedups.csv", if ht { 5 } else { 6 }),
        "machine,ht,m,k,n,chosen_threads,t_original_s,t_adsala_s",
        &csv_rows,
    );
}

// ------------------------------------------------------- plan choices

/// Beyond the paper: install over the full execution-plan grid on the
/// Gadi simulator and tabulate which plan axes the learned model picks
/// for fresh shapes — the companion of Tables V/VI for the generalised
/// (threads × blocking) decision.
fn plan_table() {
    banner("Plan table — grid-trained ExecutionPlan choices over fresh shapes, Gadi");
    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let mut cfg = InstallConfig::quick();
    // Every shape is timed at every grid point (threads × blocking), and
    // the LOF filter is quadratic in rows (in time; its memory is linear)
    // — keep the thread axis coarse so the sweep stays a few thousand rows.
    cfg.gather.n_shapes = 120;
    cfg.gather.grid =
        Some(adsala_gemm::plan::PlanGrid::full(vec![1, 8, 24, 48, timer.max_threads()]));
    let install = Installation::run(&timer, &cfg).expect("grid install");
    println!(
        "grid: {} candidate plans per shape ({} threads x {} block scales); selected {:?}",
        install.grid.len(),
        install.grid.threads.len(),
        install.grid.blockings.len(),
        install.selected
    );

    // Ground truth first: how often the sweep itself found a non-default
    // axis optimal during gathering.
    let optimal = install.data.optimal_points();
    let swept = optimal.len();
    let opt_blk = optimal.iter().filter(|(_, p)| !p.blocking.is_default()).count();
    println!("sweep-optimal non-default blocking over {swept} training shapes: {opt_blk}");

    // Serve fresh shapes and tabulate the model's plan choices.
    let service = adsala::AdsalaService::with_config(
        install.into_bundle().into_shared(),
        adsala::ServiceConfig { pool_workers: 1 },
    );
    let shapes = sample_shapes(MemoryCap::paper_training(), 120, 0x91A);
    println!("\n{:<10} {:>8} {:>8} {:>12}  chosen plan", "m", "k", "n", "pred (s)");
    let mut csv_rows = Vec::new();
    let mut chose_blk = 0usize;
    let mut distinct: std::collections::HashSet<adsala_gemm::plan::ExecutionPlan> =
        std::collections::HashSet::new();
    for (i, &s) in shapes.iter().enumerate() {
        let d = decide(&service, s);
        let plan = d.plan;
        distinct.insert(plan);
        chose_blk += usize::from(plan.blocking.is_some());
        if i < 16 {
            println!(
                "{:<10} {:>8} {:>8} {:>12.3e}  [{}]",
                s.m,
                s.k,
                s.n,
                d.predicted_runtime_s,
                plan.describe()
            );
        }
        let blk = plan
            .blocking
            .map_or_else(|| "auto".to_string(), |b| format!("{}x{}x{}", b.mc, b.kc, b.nc));
        csv_rows.push(format!(
            "{},{},{},{},{},{:.9e}",
            s.m, s.k, s.n, plan.threads, blk, d.predicted_runtime_s
        ));
    }
    println!(
        "\nmodel-selected over {} fresh shapes: {} distinct plans; non-default blocking: {}",
        shapes.len(),
        distinct.len(),
        chose_blk
    );

    // One real host execution through the service so the executed plan —
    // and any force-scalar/unsupported-ISA degradation — is visible.
    {
        use adsala_gemm::dispatch::{GemmArgs, OpRequest};
        let (m, n, k) = (192usize, 160, 224);
        let a: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32 - 6.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 11) as f32 - 5.0) * 0.5).collect();
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (d, stats) = service.run(&mut req).expect("serve sgemm");
        println!(
            "[service] sgemm {m}x{k}x{n}: requested [{}], executed isa={} degraded={}",
            d.plan.describe(),
            stats.exec.kernel_isa,
            stats.plan_degraded
        );
        println!(
            "[service] sgemm {m}x{k}x{n}: predicted {:.3} ms, measured {:.3} ms \
             (log error {})",
            stats.predicted_ns as f64 / 1e6,
            stats.exec.wall_ns as f64 / 1e6,
            stats.prediction_log_error().map_or_else(|| "n/a".to_string(), |e| format!("{e:+.3}")),
        );
        let svc = service.stats();
        println!("[service] plan downgrades: {}", svc.plan_downgrades);
        println!(
            "[service] executed algorithms: {} blocked, {} strassen, {} z-order",
            svc.algorithms.blocked, svc.algorithms.strassen, svc.algorithms.zorder
        );
        println!("{}", prediction_line("plan-table", &svc.prediction));
    }

    let path = write_csv("plan_choices_gadi.csv", "m,k,n,threads,blocking,predicted_s", &csv_rows);
    println!("[csv] {}", path.display());
}

// ---------------------------------------------------------------- fig 10

/// Fig. 10: speedup heat-maps over (m,k), (m,n), (k,n), both machines.
fn fig10() {
    banner("Fig. 10 — speedup heat-maps (HT on)");
    for machine in [Machine::Setonix, Machine::Gadi] {
        let run = speedup_run(machine, true);
        let edges = sqrt_edges(adsala_sampling::DomainSampler::PAPER_MAX_DIM, 6);
        println!("\n=== {} ===", machine.name());
        for (rl, cl, proj) in [
            (
                "m",
                "k",
                Box::new(|s: &GemmShape| (s.m, s.k)) as Box<dyn Fn(&GemmShape) -> (u64, u64)>,
            ),
            ("m", "n", Box::new(|s: &GemmShape| (s.m, s.n))),
            ("k", "n", Box::new(|s: &GemmShape| (s.k, s.n))),
        ] {
            let triples: Vec<(u64, u64, f64)> = run
                .samples
                .iter()
                .map(|(s, _, _, orig, ads)| {
                    let (a, b) = proj(s);
                    (a, b, orig / ads)
                })
                .collect();
            let cells = grid_means(&triples, &edges);
            println!("{}", render_grid("mean speedup vs max-thread GEMM", rl, cl, &cells, &edges));
        }
    }
}

// ------------------------------------------------------------ figs 11/12

/// Figs. 11/12: GFLOPS by memory bucket, vendor baseline vs ADSALA.
fn gflops_buckets(machine: Machine) {
    let fig = if machine == Machine::Setonix { 11 } else { 12 };
    banner(&format!(
        "Fig. {fig} — GFLOPS vs memory bucket on {} ({} baseline vs ML)",
        machine.name(),
        machine.blas_name()
    ));
    let run = speedup_run(machine, true);
    let baseline: Vec<(u64, f64)> = run
        .samples
        .iter()
        .map(|(s, bytes, _, orig, _)| (*bytes, s.flops() as f64 / orig / 1e9))
        .collect();
    let ml: Vec<(u64, f64)> = run
        .samples
        .iter()
        .map(|(s, bytes, _, _, ads)| (*bytes, s.flops() as f64 / ads / 1e9))
        .collect();
    println!(
        "{:<14} {:>20} {:>16} {:>8}",
        "bucket",
        format!("{} max threads", machine.blas_name()),
        "with ML",
        "gain"
    );
    let mut rows = Vec::new();
    for bucket in paper_buckets() {
        let b = bucket_mean(&baseline, &bucket);
        let m = bucket_mean(&ml, &bucket);
        if let (Some(b), Some(m)) = (b, m) {
            println!("{:<14} {:>20.1} {:>16.1} {:>7.2}x", bucket.label, b, m, m / b);
            rows.push(format!("{},{:.3},{:.3}", bucket.label, b, m));
        }
    }
    write_csv(
        &format!("fig{fig}_gflops_{}.csv", machine.name()),
        "bucket,baseline_gflops,ml_gflops",
        &rows,
    );
}

// ------------------------------------------------------------ figs 13/14

/// Figs. 13/14: the predesigned-shape sweeps — six rows (shape families)
/// by four fixed values, baseline vs ML GFLOPS.
fn predesigned(machine: Machine) {
    let fig = if machine == Machine::Setonix { 13 } else { 14 };
    banner(&format!(
        "Fig. {fig} — predesigned GEMM sweeps on {} ({} default vs ML)",
        machine.name(),
        machine.blas_name()
    ));
    let saved = SavedInstall::cached(machine, true);
    let timer = sim_timer(machine, true, Affinity::CoreBased);
    let runtime = saved.artifact.into_service();
    let p_max = timer.max_threads();
    let mut rows = Vec::new();
    for grid in PredesignedGrid::all() {
        for fixed in PredesignedGrid::FIXED {
            println!("\n{}", grid.label(fixed));
            println!(
                "{:>8} {:>14} {:>14} {:>10} {:>8}",
                "swept", "default GFLOPS", "ML GFLOPS", "chosen p", "speedup"
            );
            for swept in PredesignedGrid::SWEPT {
                let shape = grid.shape(swept, fixed);
                let t_orig = timer.time(shape, p_max, 10);
                let d = decide(&runtime, shape);
                let t_ml = timer.time(shape, d.threads(), 10);
                let gf = |t: f64| shape.flops() as f64 / t / 1e9;
                println!(
                    "{:>8} {:>14.2} {:>14.2} {:>10} {:>8.2}",
                    swept,
                    gf(t_orig),
                    gf(t_ml),
                    d.threads(),
                    t_orig / t_ml
                );
                rows.push(format!(
                    "{},{},{},{},{},{},{:.4},{:.4}",
                    grid.label(fixed).replace(',', ";"),
                    fixed,
                    swept,
                    shape.m,
                    shape.k,
                    shape.n,
                    gf(t_orig),
                    gf(t_ml)
                ));
            }
        }
    }
    write_csv(
        &format!("fig{fig}_predesigned_{}.csv", machine.name()),
        "row,fixed,swept,m,k,n,baseline_gflops,ml_gflops",
        &rows,
    );
}

// ---------------------------------------------------------------- table 7

/// Table VII: the profiler-style wall-time split of the two outlier
/// shapes on Gadi, ×1000 repetitions, max threads vs ML-chosen threads.
fn table7() {
    banner("Table VII — profiling breakdown on Gadi, 1000 repetitions");
    let saved = SavedInstall::cached(Machine::Gadi, true);
    let model = Machine::Gadi.model(true);
    let runtime = saved.artifact.into_service();
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "m,k,n", "threads", "total (s)", "sync (s)", "kernel (s)", "copy (s)"
    );
    let mut rows = Vec::new();
    for shape in [GemmShape::new(64, 2048, 64), GemmShape::new(64, 64, 4096)] {
        let chosen = decide(&runtime, shape).threads();
        for (label, p) in [("no ML", model.max_threads()), ("with ML", chosen)] {
            let c = model.expected(shape, p);
            let reps = 1000.0;
            println!(
                "{:<16} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                format!("{},{},{} {label}", shape.m, shape.k, shape.n),
                p,
                c.total() * reps,
                c.profiler_sync() * reps,
                c.kernel_s * reps,
                c.copy_s * reps
            );
            rows.push(format!(
                "{},{},{},{},{:.6},{:.6},{:.6},{:.6}",
                shape.m,
                shape.k,
                shape.n,
                label,
                p as f64,
                c.total() * reps,
                c.profiler_sync() * reps,
                c.kernel_s * reps
            ));
        }
    }
    write_csv("table7_profile_gadi.csv", "m,k,n,mode,threads,total_s,sync_s,kernel_s", &rows);
    println!("\n(the copy component dominates the no-ML rows, as in the paper)");
}

// ------------------------------------------------------ learning curve

/// §VI-A: learning curves determined that 1763 samples suffice — the
/// validation loss flattens as the training-set size grows. Reproduce the
/// curve on the Gadi model with the XGBoost-style learner.
fn learning_curve() {
    banner("Learning curve — validation NRMSE vs number of training shapes (Gadi)");
    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let full = GatherConfig { n_shapes: 800, reps: 3, ..GatherConfig::paper() };
    let data = TrainingData::gather(&timer, &full);
    println!("{:>10} {:>12} {:>16}", "shapes", "train NRMSE", "validation NRMSE");
    let mut rows = Vec::new();
    for &n_shapes in &[50usize, 100, 200, 400, 600, 800] {
        // Records of the first `n_shapes` sampled shapes.
        let shapes: std::collections::HashSet<GemmShape> =
            data.shapes.iter().take(n_shapes).copied().collect();
        let subset = TrainingData {
            records: data.records.iter().filter(|r| shapes.contains(&r.shape)).copied().collect(),
            shapes: data.shapes.iter().take(n_shapes).copied().collect(),
            grid: data.grid.clone(),
            machine: data.machine.clone(),
            max_threads: data.max_threads,
        };
        let fitted =
            fit_preprocess_with(&subset, PreprocessOptions::default()).expect("preprocess");
        let n = fitted.dataset.len();
        let train_idx: Vec<usize> = (0..n).filter(|i| i % 10 < 7).collect();
        let val_idx: Vec<usize> = (0..n).filter(|i| i % 10 >= 7).collect();
        let train = fitted.dataset.select(&train_idx);
        let val = fitted.dataset.select(&val_idx);
        let mut model = adsala_ml::tune::ModelSpec::XgBoost {
            n_rounds: 120,
            max_depth: 6,
            eta: 0.1,
            lambda: 1.0,
        }
        .build(0);
        model.fit(&train.x, &train.y).expect("fit");
        let train_nrmse = adsala_ml::metrics::normalised_rmse(&model.predict(&train.x), &train.y);
        let val_nrmse = adsala_ml::metrics::normalised_rmse(&model.predict(&val.x), &val.y);
        println!("{n_shapes:>10} {train_nrmse:>12.4} {val_nrmse:>16.4}");
        rows.push(format!("{n_shapes},{train_nrmse:.6},{val_nrmse:.6}"));
    }
    println!("\nthe validation curve flattening is what justified the paper's 1763 samples");
    write_csv("learning_curve_gadi.csv", "shapes,train_nrmse,val_nrmse", &rows);
}

// ------------------------------------------------------- future work: ops

/// The paper's future-work extension: per-routine thread selectors for
/// SYRK and GEMV, trained by the unchanged pipeline via dimension-space
/// mapping (see `adsala::OpShape::gemm_equivalent`).
fn ops_extension() {
    banner("Future work — ML thread selection for SYRK and GEMV (Setonix model)");
    use adsala::Routine;
    use adsala_machine::SimTimer;
    for op in [Routine::Syrk, Routine::Gemv] {
        let name = op.as_str().to_uppercase();
        let timer = SimTimer::for_routine(Machine::Setonix.model(true), op);
        let mut cfg = InstallConfig::quick();
        cfg.families = vec![ModelKind::DecisionTree, ModelKind::XgBoost];
        cfg.gather.n_shapes = 250;
        // SYRK's m×m output confines the shapes the 500 MB cap admits to
        // m below ~11 000: bound the domain so few draws are rejected.
        if op == Routine::Syrk {
            cfg.gather.max_dim = Some(8000);
        }
        let install = Installation::run(&timer, &cfg).expect("install");
        let p_max = timer.max_threads();
        let selected = install.selected;
        let runtime = install.into_service();
        // Fresh Halton shapes from the training domain, drawn as a
        // gather for the routine draws them.
        let shapes: Vec<GemmShape> = GatherConfig { n_shapes: 200, seed: 0x0B5, ..cfg.gather }
            .sample_shapes(op)
            .into_iter()
            // Degenerate inputs (a handful of elements) trivially favour
            // one thread by enormous factors; exclude them as
            // uninteresting rather than let them dominate the mean.
            .filter(|s| s.m >= 32 && s.k >= 32)
            .take(80)
            .collect();
        let mut speedups: Vec<f64> = Vec::new();
        let mut rows = Vec::new();
        for &s in &shapes {
            let d = decide(&runtime, s);
            let t_max = timer.time(s, p_max, 5);
            let t_ml = timer.time(s, d.threads(), 5);
            speedups.push(t_max / t_ml);
            rows.push(format!(
                "{},{},{},{},{:.6e},{:.6e}",
                name,
                s.m,
                s.k,
                d.threads(),
                t_max,
                t_ml
            ));
        }
        let stats = SpeedupStats::from_samples(&speedups);
        println!(
            "{}: mean speedup {:.2}x (median {:.2}x, max {:.2}x) over {} shapes; selected {:?}",
            name,
            stats.mean,
            stats.p50,
            stats.max,
            shapes.len(),
            selected
        );
        write_csv(
            &format!("ops_{}_speedups.csv", op.as_str()),
            "op,d1,d2,chosen_threads,t_max_s,t_ml_s",
            &rows,
        );
    }
}

// ---------------------------------------------------------------- ablations

/// Every ablation `repro ablation <name>` knows, in the order `all` runs them.
const ABLATIONS: &[(&str, fn())] = &[
    ("yj", || {
        ablation_preprocess("yj", PreprocessOptions { yeo_johnson: false, ..Default::default() })
    }),
    ("lof", || ablation_preprocess("lof", PreprocessOptions { lof: false, ..Default::default() })),
    ("corr", || {
        ablation_preprocess(
            "corr",
            PreprocessOptions { corr_threshold: 1.01, ..Default::default() },
        )
    }),
    ("halton", ablation_halton),
    ("memo", ablation_memo),
    ("eval-overhead", ablation_eval_overhead),
];

/// With a name after `ablation`, run that one; with none (as under `all`)
/// run every ablation.
fn ablation() {
    let wanted = std::env::args().nth(2);
    let chosen: Vec<fn()> = ABLATIONS
        .iter()
        .filter(|(name, _)| wanted.as_deref().is_none_or(|w| w == *name))
        .map(|&(_, run)| run)
        .collect();
    if chosen.is_empty() {
        eprint!("unknown ablation `{}`\n{}", wanted.unwrap_or_default(), usage());
        std::process::exit(2);
    }
    for run in chosen {
        run();
    }
}

/// Train the XGBoost-style model with one preprocessing step disabled and
/// compare test NRMSE against the full chain.
fn ablation_preprocess(name: &str, opts: PreprocessOptions) {
    banner(&format!("Ablation `{name}` — preprocessing step disabled vs full chain (Gadi)"));
    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let cfg = GatherConfig { n_shapes: 250, reps: 3, ..GatherConfig::paper() };
    let data = TrainingData::gather(&timer, &cfg);
    let score = |opts: PreprocessOptions| -> (f64, usize) {
        let fitted = fit_preprocess_with(&data, opts).expect("preprocess");
        // 70/30 row split for a quick, honest comparison.
        let n = fitted.dataset.len();
        let train_idx: Vec<usize> = (0..n).filter(|i| i % 10 < 7).collect();
        let test_idx: Vec<usize> = (0..n).filter(|i| i % 10 >= 7).collect();
        let train = fitted.dataset.select(&train_idx);
        let test = fitted.dataset.select(&test_idx);
        let mut model = adsala_ml::tune::ModelSpec::XgBoost {
            n_rounds: 120,
            max_depth: 6,
            eta: 0.1,
            lambda: 1.0,
        }
        .build(0);
        model.fit(&train.x, &train.y).expect("fit");
        (
            adsala_ml::metrics::normalised_rmse(&model.predict(&test.x), &test.y),
            fitted.dataset.x.cols(),
        )
    };
    let (full_nrmse, full_feats) = score(PreprocessOptions::default());
    let (ablated_nrmse, ablated_feats) = score(opts);
    println!("full chain   : NRMSE {full_nrmse:.4} ({full_feats} features)");
    println!("without {name:<4} : NRMSE {ablated_nrmse:.4} ({ablated_feats} features)");
    println!("delta        : {:+.1}%", 100.0 * (ablated_nrmse - full_nrmse) / full_nrmse);
}

/// Compare scrambled-Halton sampling against i.i.d. uniform sampling of
/// the training shapes: coverage and downstream model quality.
fn ablation_halton() {
    banner("Ablation `halton` — scrambled Halton vs uniform random sampling (Gadi)");
    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let ladder = ThreadLadder::geometric(96);

    // Uniform sampler over the same square-law domain, same cap.
    let uniform_shapes: Vec<GemmShape> = {
        use rand::rngs::StdRng;
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xAB1);
        let cap = MemoryCap::paper_training();
        let mut shapes = Vec::new();
        while shapes.len() < 250 {
            let mut dim = || {
                let u: f64 = rng.gen();
                (1.0 + u * u * (74_000.0 - 1.0)).round() as u64
            };
            let s = GemmShape::new(dim(), dim(), dim());
            if s.memory_bytes(Precision::F32) <= cap.bytes {
                shapes.push(s);
            }
        }
        shapes
    };
    let halton_shapes = sample_shapes(MemoryCap::paper_training(), 250, 0xAB2);

    let gather_from = |shapes: &[GemmShape]| -> TrainingData {
        let records = shapes
            .iter()
            .flat_map(|&shape| {
                ladder.counts.iter().map(move |&threads| adsala::gather::GemmRecord {
                    shape,
                    point: adsala_gemm::plan::PlanPoint::threads_only(threads),
                    runtime_s: 0.0,
                })
            })
            .map(|mut r| {
                r.runtime_s = timer.time(r.shape, r.threads(), 3);
                r
            })
            .collect();
        TrainingData {
            records,
            shapes: shapes.to_vec(),
            grid: adsala_gemm::plan::PlanGrid::threads_only(ladder.counts.clone()),
            machine: timer.name(),
            max_threads: 96,
        }
    };

    for (label, shapes) in [("halton", &halton_shapes), ("uniform", &uniform_shapes)] {
        let data = gather_from(shapes);
        let fitted = fit_preprocess_with(&data, PreprocessOptions::default()).expect("preprocess");
        let n = fitted.dataset.len();
        let train_idx: Vec<usize> = (0..n).filter(|i| i % 10 < 7).collect();
        let test_idx: Vec<usize> = (0..n).filter(|i| i % 10 >= 7).collect();
        let train = fitted.dataset.select(&train_idx);
        let test = fitted.dataset.select(&test_idx);
        let mut model = adsala_ml::tune::ModelSpec::XgBoost {
            n_rounds: 120,
            max_depth: 6,
            eta: 0.1,
            lambda: 1.0,
        }
        .build(0);
        model.fit(&train.x, &train.y).expect("fit");
        let nrmse = adsala_ml::metrics::normalised_rmse(&model.predict(&test.x), &test.y);
        let small = shapes.iter().filter(|s| s.memory_bytes(Precision::F32) < 100_000_000).count();
        println!(
            "{label:<8}: NRMSE {nrmse:.4}, {small}/{} shapes in the 0-100 MB band",
            shapes.len()
        );
    }
}

/// Measure the memoisation benefit of the runtime workflow (§III-C): the
/// bundle's pure model sweep (no memo) against a decision-cache hit on a
/// repeated shape and a miss on a fresh-shape stream.
fn ablation_memo() {
    banner("Ablation `memo` — repeated-shape decision latency (Gadi install)");
    let saved = SavedInstall::cached(Machine::Gadi, true);
    // Decision serving only (no sgemm here): a 1-worker pool avoids
    // spawning idle host-parallelism workers per run.
    let service = adsala::AdsalaService::with_config(
        saved.artifact.into_bundle().into_shared(),
        adsala::ServiceConfig { pool_workers: 1 },
    );
    let bundle = service.bundle();
    let shape = adsala::OpShape::gemm(adsala::Precision::F32, 64, 2048, 64);
    let reps = 20_000u32;
    let t_sweep = {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(bundle.decide_op_capped(shape, u32::MAX));
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    let t_svc_cold = {
        let start = Instant::now();
        for i in 0..reps {
            decide(&service, GemmShape::new(64 + i as u64, 2048, 64));
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    let t_svc_hot = {
        service.select_for_capped(shape, u32::MAX);
        let start = Instant::now();
        for _ in 0..reps {
            service.select_for_capped(shape, u32::MAX);
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    let stats = service.stats();
    println!("unmemoised selection (model sweep):      {:.2} us", t_sweep * 1e6);
    println!("service cold selection (fresh shapes):   {:.2} us", t_svc_cold * 1e6);
    println!("service memoised selection (hot shape):  {:.3} us", t_svc_hot * 1e6);
    println!("memoisation saves {:.0}x", t_sweep / t_svc_hot.max(1e-12));
    println!("[service] kernel dispatch: {}", adsala_machine::HostCaches::probe().summary());
    println!(
        "service cache: {} hits / {} misses, {} evictions, {}/{} entries, {} sweeps",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.entries,
        stats.cache.capacity,
        stats.evaluations
    );
}

/// Reproduce the paper's eval-overhead regime: with a Python-stack-like
/// 1000× evaluation cost, slow models (Random Forest) fall below
/// break-even exactly as in Tables III/IV.
fn ablation_eval_overhead() {
    banner("Ablation `eval-overhead` — model table with 1000x evaluation cost (Gadi)");
    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let mut cfg = InstallConfig::harness();
    cfg.gather.n_shapes = 250;
    cfg.eval_scale = 1000.0;
    cfg.families = vec![
        ModelKind::BayesianRidge,
        ModelKind::DecisionTree,
        ModelKind::RandomForest,
        ModelKind::XgBoost,
    ];
    let install = Installation::run(&timer, &cfg).expect("install");
    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>10}",
        "model", "NRMSE", "ideal-mean", "eval-us", "est-mean"
    );
    for r in &install.reports {
        println!(
            "{:<18} {:>8.3} {:>10.3} {:>10.1} {:>10.3}",
            r.kind.name(),
            r.test_nrmse,
            r.ideal_mean_speedup,
            r.eval_time_us,
            r.est_mean_speedup
        );
    }
    println!("\nselected model under 1000x eval cost: {:?}", install.selected);
    let forest = install.reports.iter().find(|r| r.kind == ModelKind::RandomForest);
    if let Some(f) = forest {
        if f.est_mean_speedup < f.ideal_mean_speedup {
            println!(
                "Random Forest loses {:.2}x of its ideal speedup to evaluation overhead",
                f.ideal_mean_speedup / f.est_mean_speedup
            );
        }
    }
}

// ---------------------------------------------------------------- misc

fn banner(title: &str) {
    println!("\n{}", "=".repeat(title.len().min(100)));
    println!("{title}");
    println!("{}", "=".repeat(title.len().min(100)));
    let _ = results_dir();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_table_feeds_dispatch_all_and_usage() {
        let names: Vec<&str> = ARTEFACTS.iter().map(|&(name, ..)| name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "an artefact name is listed twice: {names:?}");

        // `all` runs every other entry exactly once, in table order.
        let (last, rest) = names.split_last().unwrap();
        assert_eq!(*last, "all");
        let run_by_all: Vec<&str> = all_sequence().iter().map(|&(name, ..)| name).collect();
        assert_eq!(run_by_all, rest);

        let text = usage();
        for name in names.iter().copied().chain(ABLATIONS.iter().map(|&(name, _)| name)) {
            let listed = text.lines().any(|l| l.split_whitespace().any(|w| w == name));
            assert!(listed, "usage does not list `{name}`:\n{text}");
        }
    }
}
