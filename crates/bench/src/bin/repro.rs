//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <artefact> [args]
//!
//!   fig1      optimal-thread histogram, SGEMM ≤ 100 MB, Gadi
//!   fig4      feature distributions before/after Yeo-Johnson (Setonix)
//!   fig7      core- vs thread-based affinity runtime curves
//!   fig8      optimal-thread histogram, min(m,k,n) < 1000, Setonix
//!   fig9      optimal-thread heat-maps, both machines
//!   table3    model comparison table, Setonix
//!   table4    model comparison table, Gadi
//!   table5    speedup statistics, hyper-threading on
//!   table6    speedup statistics, hyper-threading off
//!   plans     grid-trained ExecutionPlan choice table (beyond the paper)
//!   fig10     speedup heat-maps over (m,k),(m,n),(k,n)
//!   fig11     GFLOPS vs memory bucket, Setonix (BLIS vs ML)
//!   fig12     GFLOPS vs memory bucket, Gadi (MKL vs ML)
//!   fig13     predesigned-shape GFLOPS sweeps, Setonix
//!   fig14     predesigned-shape GFLOPS sweeps, Gadi
//!   table7    profiler-style sync/copy/kernel breakdown, Gadi
//!   scheduler co-scheduled vs independent serving throughput (host)
//!   online    drift → retrain → hot-swap feedback loop (beyond the paper)
//!   algo      algorithm-axis dispatch: Strassen/Z-order vs blocked (host)
//!   ablation  yj | lof | corr | halton | memo | eval-overhead
//!   all       everything above in paper order
//! ```
//!
//! Results are printed to stdout and written as CSV under `results/`.
//! Trained installations are cached in `results/install_*.json`.

use std::time::Instant;

use adsala::gather::{histogram, GatherConfig, ThreadLadder, TrainingData};
use adsala::install::{InstallConfig, Installation};
use adsala::preprocess::{fit_preprocess_with, PreprocessOptions};

use adsala::feature_names;
use adsala::speedup::{bucket_mean, paper_buckets, SpeedupStats};
use adsala_bench::{
    grid_means, mean_runtime, render_grid, render_histogram, results_dir, sim_timer, sqrt_edges,
    write_csv, Machine, SavedInstall,
};
use adsala_machine::{Affinity, GemmTimer};
use adsala_ml::{ModelKind, Regressor};
use adsala_sampling::{DomainSampler, GemmShape, MemoryCap, Precision, PredesignedGrid};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: repro <fig1|fig4|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|table3|table4|table5|table6|table7|plans|scheduler|online|algo|faults|ablation <name>|all>");
        std::process::exit(2);
    };
    let started = Instant::now();
    match cmd.as_str() {
        "fig1" => fig1(),
        "fig4" => fig4(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "table3" => model_table(Machine::Setonix),
        "table4" => model_table(Machine::Gadi),
        "table5" => speedup_table(true),
        "table6" => speedup_table(false),
        "plans" => plan_table(),
        "fig10" => fig10(),
        "fig11" => gflops_buckets(Machine::Setonix, "fig11"),
        "fig12" => gflops_buckets(Machine::Gadi, "fig12"),
        "fig13" => predesigned(Machine::Setonix, "fig13"),
        "fig14" => predesigned(Machine::Gadi, "fig14"),
        "table7" => table7(),
        "ops" => ops_extension(),
        "learning-curve" => learning_curve(),
        "scheduler" => scheduler_bench(),
        "online" => online_bench(),
        "algo" => algo_bench(),
        "faults" => faults_bench(),
        "ablation" => ablation(args.get(1).map(String::as_str).unwrap_or("")),
        "all" => {
            fig1();
            fig4();
            fig7();
            fig8();
            fig9();
            model_table(Machine::Setonix);
            model_table(Machine::Gadi);
            speedup_table(true);
            speedup_table(false);
            plan_table();
            fig10();
            gflops_buckets(Machine::Setonix, "fig11");
            gflops_buckets(Machine::Gadi, "fig12");
            predesigned(Machine::Setonix, "fig13");
            predesigned(Machine::Gadi, "fig14");
            table7();
            ops_extension();
            learning_curve();
            scheduler_bench();
            online_bench();
            algo_bench();
            faults_bench();
            for name in ["yj", "lof", "corr", "halton", "memo", "eval-overhead"] {
                ablation(name);
            }
        }
        other => {
            eprintln!("unknown artefact `{other}`");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] {cmd} finished in {:.1}s", started.elapsed().as_secs_f64());
}

/// Sample `n` shapes under `cap` from the scrambled Halton domain.
fn sample_shapes(cap: MemoryCap, n: usize, seed: u64) -> Vec<GemmShape> {
    DomainSampler::new(cap, Precision::F32, seed).sample(n)
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
    let names = feature_names();
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
    /// Decision-cache counters after serving the whole set.
    cache: adsala::CacheStats,
    /// Model sweeps the service performed.
    evaluations: u64,
    /// Full service counters (pool gang traffic, plan downgrades).
    service: adsala::ServiceStats,
}

fn speedup_run(machine: Machine, ht: bool) -> SpeedupRun {
    let saved = SavedInstall::cached(machine, ht);
    let timer = sim_timer(machine, ht, Affinity::CoreBased);
    // Decision serving only (no sgemm here): a 1-worker pool avoids
    // spawning idle host-parallelism workers per run.
    let service = adsala::AdsalaService::with_config(
        saved.artifact.into_bundle().into_shared(),
        adsala::ServiceConfig { pool_workers: 1, ..Default::default() },
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
    let decisions: Vec<_> = shapes.iter().map(|&s| service.select_threads(s.m, s.k, s.n)).collect();
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
        cache: service.cache_stats(),
        evaluations: service.evaluations(),
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
            run.cache.lookups(),
            run.cache.hits,
            run.cache.misses,
            run.cache.evictions,
            run.evaluations
        ));
        service_lines.push(format!(
            "[service] {} pool gangs: {} reserved, {} refused; plan downgrades: {}",
            machine.name(),
            run.service.pool.gang_reserved,
            run.service.pool.gang_refused,
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
/// (threads × ISA × blocking × packing) decision.
fn plan_table() {
    banner("Plan table — grid-trained ExecutionPlan choices over fresh shapes, Gadi");
    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let mut cfg = InstallConfig::quick();
    // Every shape is timed at every grid point (threads × isa × blocking
    // × packing), and the LOF filter is quadratic in rows (in time; its
    // memory is linear) — keep the thread axis coarse so the sweep stays a
    // few thousand rows.
    cfg.gather.n_shapes = 120;
    cfg.gather.grid =
        Some(adsala_gemm::plan::PlanGrid::full(vec![1, 8, 24, 48, timer.max_threads()]));
    let install = Installation::run(&timer, &cfg).expect("grid install");
    println!(
        "grid: {} candidate plans per shape ({} threads x {} isa x {} block scales x {} packings); selected {:?}",
        install.grid.len(),
        install.grid.threads.len(),
        install.grid.isa.len(),
        install.grid.blockings.len(),
        install.grid.packing.len(),
        install.selected
    );

    // Ground truth first: how often the sweep itself found a non-default
    // axis optimal during gathering.
    let optimal = install.data.optimal_points();
    let swept = optimal.len();
    let opt_isa =
        optimal.iter().filter(|(_, p)| p.isa != adsala_gemm::plan::IsaChoice::default()).count();
    let opt_blk = optimal.iter().filter(|(_, p)| !p.blocking.is_default()).count();
    let opt_pack = optimal
        .iter()
        .filter(|(_, p)| p.packing != adsala_gemm::plan::PackingStrategy::SharedB)
        .count();
    println!(
        "sweep-optimal non-default axes over {swept} training shapes: \
         isa {opt_isa}, blocking {opt_blk}, packing {opt_pack}"
    );

    // Serve fresh shapes and tabulate the model's plan choices.
    let service = adsala::AdsalaService::with_config(
        install.into_bundle().into_shared(),
        adsala::ServiceConfig { pool_workers: 1, ..Default::default() },
    );
    let shapes = sample_shapes(MemoryCap::paper_training(), 120, 0x91A);
    println!("\n{:<10} {:>8} {:>8} {:>12}  chosen plan", "m", "k", "n", "pred (s)");
    let mut csv_rows = Vec::new();
    let mut chose_isa = 0usize;
    let mut chose_blk = 0usize;
    let mut chose_pack = 0usize;
    let mut distinct: std::collections::HashSet<adsala_gemm::plan::ExecutionPlan> =
        std::collections::HashSet::new();
    for (i, &s) in shapes.iter().enumerate() {
        let d = service.select_threads(s.m, s.k, s.n);
        let plan = d.plan;
        distinct.insert(plan);
        chose_isa += usize::from(plan.kernel_isa.is_some());
        chose_blk += usize::from(plan.blocking.is_some());
        chose_pack += usize::from(plan.packing != adsala_gemm::plan::PackingStrategy::SharedB);
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
        let isa = plan.kernel_isa.map_or("auto", |i| i.as_str());
        let blk = plan
            .blocking
            .map_or_else(|| "auto".to_string(), |b| format!("{}x{}x{}", b.mc, b.kc, b.nc));
        csv_rows.push(format!(
            "{},{},{},{},{},{},{},{:.9e}",
            s.m, s.k, s.n, plan.threads, isa, blk, plan.packing, d.predicted_runtime_s
        ));
    }
    println!(
        "\nmodel-selected over {} fresh shapes: {} distinct plans; non-default axes: \
         isa {}, blocking {}, packing {}",
        shapes.len(),
        distinct.len(),
        chose_isa,
        chose_blk,
        chose_pack
    );
    let axes_moved = [chose_isa, chose_blk, chose_pack].iter().filter(|&&c| c > 0).count();
    println!("plan axes exercised beyond the thread count: {axes_moved} of 3");

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
        println!(
            "[service] pool gangs: {} reserved, {} refused (independent-packing fallbacks); \
             plan downgrades: {}",
            svc.pool.gang_reserved, svc.pool.gang_refused, svc.plan_downgrades
        );
        println!(
            "[service] executed algorithms: {} blocked, {} strassen, {} z-order",
            svc.algorithms.blocked, svc.algorithms.strassen, svc.algorithms.zorder
        );
        println!("{}", prediction_line("plan-table", &svc.prediction));
    }

    let path = write_csv(
        "plan_choices_gadi.csv",
        "m,k,n,threads,isa,blocking,packing,predicted_s",
        &csv_rows,
    );
    println!("[csv] {}", path.display());
}

// ------------------------------------------------------------- scheduler

/// Nearest-rank percentile of an already-sorted latency sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One side of the scheduler comparison, as written to
/// `BENCH_scheduler.json`.
#[derive(serde::Serialize, serde::Deserialize)]
struct SchedulerSide {
    throughput_ops_s: f64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    gang_reserved: u64,
    gang_fallbacks: u64,
}

/// Scheduler-only counters attached to the scheduled side.
#[derive(serde::Serialize, serde::Deserialize)]
struct SchedulerQueueReport {
    fused_ops: u64,
    waves: u64,
    admission_waits: u64,
    max_queue_depth: usize,
    thread_budget: usize,
    plan_downgrades: u64,
    predicted_makespan_s: f64,
    measured_makespan_s: f64,
}

/// The `BENCH_scheduler.json` schema.
#[derive(serde::Serialize, serde::Deserialize)]
struct SchedulerBenchReport {
    bench: String,
    clients: usize,
    reps_per_client: usize,
    m: usize,
    k: usize,
    n: usize,
    independent: SchedulerSide,
    scheduled: SchedulerSide,
    queue: SchedulerQueueReport,
    throughput_ratio: f64,
}

/// Serving comparison on the real host pool: N clients of same-shape
/// shared-`B` GEMM traffic through [`adsala::ServiceScheduler::submit`]
/// (admission queue → joint plan → fused gang dispatch) versus the same
/// traffic through independent [`adsala::AdsalaService::run`] calls that
/// race for the pool. Writes `results/BENCH_scheduler.json`.
fn scheduler_bench() {
    use adsala_gemm::dispatch::{GemmArgs, OpRequest};

    banner("Co-scheduler — admission-controlled queue vs independent dispatch (host)");
    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("quick install");
    let bundle = install.into_bundle().into_shared();

    let clients = 8usize;
    let reps = 48usize;
    let warmup = 4usize;
    let (m, n, k) = (256usize, 192usize, 160usize);
    let fill = |len: usize, seed: u64| -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 1000) as f32 - 500.0) / 250.0
            })
            .collect()
    };
    let b = fill(k * n, 7);
    let a_mats: Vec<Vec<f32>> = (0..clients).map(|t| fill(m * k, 100 + t as u64)).collect();
    // Keep enough workers that waves can hold several ops even on a
    // narrow host — the comparison is about arbitration, not core count.
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).max(4);
    let svc_cfg = adsala::ServiceConfig { pool_workers: workers, ..Default::default() };
    println!(
        "{clients} clients x {reps} reps of sgemm {m}x{k}x{n}, one shared B operand, \
         {workers}-worker host pool"
    );

    // --- independent dispatch: every client races `service.run` alone.
    let service = adsala::AdsalaService::with_config(std::sync::Arc::clone(&bundle), svc_cfg);
    // Untimed warm-up so pool spin-up and decision memoisation are paid
    // outside the measured window on both sides.
    std::thread::scope(|scope| {
        for a in a_mats.iter() {
            let (service, b) = (&service, &b);
            scope.spawn(move || {
                let mut c = vec![0.0f32; m * n];
                for _ in 0..warmup {
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, a, k, b, n, 0.0, &mut c, n).into();
                    service.run(&mut req).expect("warm sgemm");
                }
            });
        }
    });
    let unsched_lat = std::sync::Mutex::new(Vec::<f64>::new());
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for (t, a) in a_mats.iter().enumerate() {
            let (service, b, lat) = (&service, &b, &unsched_lat);
            scope.spawn(move || {
                let mut c = vec![0.0f32; m * n];
                let mut local = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, a, k, b, n, 0.0, &mut c, n).into();
                    let t0 = Instant::now();
                    service.run(&mut req).expect("serve sgemm");
                    local.push(t0.elapsed().as_secs_f64());
                }
                let _ = t;
                lat.lock().unwrap().extend(local);
            });
        }
    });
    let unsched_wall = wall.elapsed().as_secs_f64();
    let unsched_pool = service.pool_stats();
    let unsched_pred = service.prediction_stats();
    let mut unsched_lat = unsched_lat.into_inner().unwrap();
    unsched_lat.sort_by(f64::total_cmp);

    // --- co-scheduled dispatch: same traffic through the admission queue.
    let service = std::sync::Arc::new(adsala::AdsalaService::with_config(
        std::sync::Arc::clone(&bundle),
        svc_cfg,
    ));
    let sched = adsala::ServiceScheduler::with_config(service, adsala::SchedulerConfig::default());
    std::thread::scope(|scope| {
        for a in a_mats.iter() {
            let (sched, b) = (&sched, &b);
            scope.spawn(move || {
                let mut c = vec![0.0f32; m * n];
                for _ in 0..warmup {
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, a, k, b, n, 0.0, &mut c, n).into();
                    sched.submit(&mut req).expect("warm sgemm");
                }
            });
        }
    });
    let sched_lat = std::sync::Mutex::new(Vec::<f64>::new());
    let wall = Instant::now();
    std::thread::scope(|scope| {
        for (t, a) in a_mats.iter().enumerate() {
            let (sched, b, lat) = (&sched, &b, &sched_lat);
            scope.spawn(move || {
                let mut c = vec![0.0f32; m * n];
                let mut local = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, a, k, b, n, 0.0, &mut c, n).into();
                    let t0 = Instant::now();
                    sched.submit(&mut req).expect("schedule sgemm");
                    local.push(t0.elapsed().as_secs_f64());
                }
                let _ = t;
                lat.lock().unwrap().extend(local);
            });
        }
    });
    let sched_wall = wall.elapsed().as_secs_f64();
    let sstats = sched.stats();
    let mut sched_lat = sched_lat.into_inner().unwrap();
    sched_lat.sort_by(f64::total_cmp);

    let ops = (clients * reps) as f64;
    let unsched_tput = ops / unsched_wall;
    let sched_tput = ops / sched_wall;
    let ratio = sched_tput / unsched_tput;
    println!(
        "[service] independent: {:.1} ops/s (p50 {:.3} ms, p99 {:.3} ms); \
         gangs {} reserved / {} refused",
        unsched_tput,
        percentile(&unsched_lat, 0.50) * 1e3,
        percentile(&unsched_lat, 0.99) * 1e3,
        unsched_pool.gang_reserved,
        unsched_pool.gang_refused,
    );
    println!(
        "[service] scheduled:   {:.1} ops/s (p50 {:.3} ms, p99 {:.3} ms); \
         gangs {} reserved / {} refused; fused {} of {} ops",
        sched_tput,
        percentile(&sched_lat, 0.50) * 1e3,
        percentile(&sched_lat, 0.99) * 1e3,
        sstats.service.pool.gang_reserved,
        sstats.gang_fallbacks(),
        sstats.fused_ops,
        sstats.completed,
    );
    println!(
        "[service] queue: max depth {}, admission waits {}, {} waves, \
         budget {} threads (peak in-flight {})",
        sstats.max_queue_depth,
        sstats.admission_waits,
        sstats.waves_completed,
        sstats.thread_budget,
        sstats.max_in_flight_threads,
    );
    println!(
        "[service] makespan over {} waves: predicted {:.3}s vs measured {:.3}s; \
         plan downgrades {}",
        sstats.waves_completed,
        sstats.predicted_makespan_s,
        sstats.measured_makespan_s,
        sstats.plan_downgrades,
    );
    println!("{}", prediction_line("independent", &unsched_pred));
    println!("{}", prediction_line("scheduled", &sstats.service.prediction));
    println!("[service] scheduled/independent throughput ratio: {ratio:.2}x");

    let report = SchedulerBenchReport {
        bench: "scheduler".to_string(),
        clients,
        reps_per_client: reps,
        m,
        k,
        n,
        independent: SchedulerSide {
            throughput_ops_s: unsched_tput,
            p50_latency_ms: percentile(&unsched_lat, 0.50) * 1e3,
            p99_latency_ms: percentile(&unsched_lat, 0.99) * 1e3,
            gang_reserved: unsched_pool.gang_reserved,
            gang_fallbacks: unsched_pool.gang_refused,
        },
        scheduled: SchedulerSide {
            throughput_ops_s: sched_tput,
            p50_latency_ms: percentile(&sched_lat, 0.50) * 1e3,
            p99_latency_ms: percentile(&sched_lat, 0.99) * 1e3,
            gang_reserved: sstats.service.pool.gang_reserved,
            gang_fallbacks: sstats.gang_fallbacks(),
        },
        queue: SchedulerQueueReport {
            fused_ops: sstats.fused_ops,
            waves: sstats.waves_completed,
            admission_waits: sstats.admission_waits,
            max_queue_depth: sstats.max_queue_depth,
            thread_budget: sstats.thread_budget,
            plan_downgrades: sstats.plan_downgrades,
            predicted_makespan_s: sstats.predicted_makespan_s,
            measured_makespan_s: sstats.measured_makespan_s,
        },
        throughput_ratio: ratio,
    };
    let path = results_dir().join("BENCH_scheduler.json");
    std::fs::create_dir_all(results_dir()).expect("create results dir");
    std::fs::write(&path, serde_json::to_string(&report).expect("serialise bench"))
        .expect("write BENCH_scheduler.json");
    println!("[json] {}", path.display());
}

// ------------------------------------------------------------------ faults

/// The `BENCH_faults.json` schema: recovery counters and tail latency
/// from a chaos flood under an injected fault plan.
#[derive(serde::Serialize, serde::Deserialize)]
struct FaultsBenchReport {
    bench: String,
    fault_spec: String,
    clients: usize,
    reps_per_client: usize,
    ops_completed: u64,
    injected_panics: u64,
    injected_stalls: u64,
    panics_recovered: u64,
    degraded_retries: u64,
    execution_failures: u64,
    workers_respawned: u64,
    deadline_misses: u64,
    shed_expired: u64,
    admission_timeouts: u64,
    gang_backoff_retries: u64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
}

/// Chaos run on the host pool: an 8-client mixed-shape flood while a
/// `FaultPlan` injects worker panics and stalls (honouring
/// `ADSALA_FAULTS` when set, falling back to a built-in chaos spec),
/// followed by deterministic expired-deadline traffic through the
/// scheduler. Every flood client must still be served; the recovery
/// counters and the tail latency under faults are recorded to
/// `results/BENCH_faults.json`.
fn faults_bench() {
    use adsala_gemm::dispatch::{GemmArgs, OpRequest};
    use adsala_gemm::fault::{self, FaultPlan};

    banner("Fault tolerance — chaos flood with injected worker faults (host)");

    const DEFAULT_SPEC: &str = "panic:where=worker:count=8, stall:ms=1:count=32";
    let (plan, spec) = match fault::current_plan() {
        Some(plan) => (plan, "env:ADSALA_FAULTS".to_string()),
        None => (
            fault::set_plan(Some(FaultPlan::parse(DEFAULT_SPEC).expect("default fault spec")))
                .expect("install fault plan"),
            DEFAULT_SPEC.to_string(),
        ),
    };
    println!("fault plan: {spec}");

    // Injected panics are the point of this run: silence their reports
    // so the output stays readable, but keep the hook for real ones.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"))
            || info.payload().downcast_ref::<&str>().is_some_and(|m| m.contains("injected fault"));
        if !expected {
            default_hook(info);
        }
    }));

    let bundle = adsala::bundle::quick_test_bundle().into_shared();
    let svc = std::sync::Arc::new(adsala::AdsalaService::with_config(
        bundle,
        adsala::ServiceConfig { pool_workers: 4, ..adsala::ServiceConfig::default() },
    ));

    let clients = 8usize;
    let reps = 24usize;
    let shapes: [(usize, usize, usize); 4] =
        [(256, 256, 256), (192, 192, 192), (96, 96, 96), (64, 64, 64)];
    let fill = |len: usize, seed: u64| -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 1000) as f32 - 500.0) / 250.0
            })
            .collect()
    };
    let lat = std::sync::Mutex::new(Vec::<f64>::new());
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (svc, lat, fill) = (&svc, &lat, &fill);
            scope.spawn(move || {
                let mut local = Vec::with_capacity(reps);
                for rep in 0..reps {
                    let (m, n, k) = shapes[(client + rep) % shapes.len()];
                    let a = fill(m * k, (client * 100 + rep) as u64 + 1);
                    let b = fill(k * n, (client * 100 + rep) as u64 + 51);
                    let mut c = vec![0.0f32; m * n];
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                    let t0 = Instant::now();
                    svc.run(&mut req).expect("every client must be served under faults");
                    local.push(t0.elapsed().as_secs_f64());
                }
                lat.lock().unwrap().extend(local);
            });
        }
    });
    let mut lat = lat.into_inner().unwrap();
    lat.sort_by(f64::total_cmp);

    // Deterministic deadline traffic: already-expired deadlines must be
    // shed by the wave planner (scheduler) and refused before execution
    // (service), both counted, neither touching the output.
    let sched = adsala::ServiceScheduler::with_config(
        std::sync::Arc::clone(&svc),
        adsala::SchedulerConfig::default(),
    );
    let expired = adsala::RunOptions::default()
        .with_deadline(Instant::now() - std::time::Duration::from_millis(1));
    for seed in 0..4u64 {
        let (m, n, k) = (64usize, 64usize, 64usize);
        let a = fill(m * k, 900 + seed);
        let b = fill(k * n, 950 + seed);
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let outcome = if seed % 2 == 0 {
            sched.submit_with(&mut req, expired).map(|_| ())
        } else {
            svc.run_with(&mut req, expired).map(|_| ())
        };
        assert!(
            matches!(outcome, Err(adsala::AdsalaError::Timeout(_))),
            "expired deadline must be refused with Timeout"
        );
    }

    fault::set_plan(None);
    let _ = std::panic::take_hook(); // restore the default panic hook

    let stats = svc.stats();
    let sstats = sched.stats();
    let ops = (clients * reps) as u64;
    if plan.injected_panics() > 0 {
        assert!(stats.panics_recovered >= 1, "injected panics were not recovered");
        assert!(stats.pool.workers_respawned >= 1, "dead workers were not respawned");
    }
    assert_eq!(stats.execution_failures, 0, "a client request was dropped");

    println!(
        "[service] chaos flood: {ops} ops served under faults \
         (p50 {:.3} ms, p99 {:.3} ms)",
        percentile(&lat, 0.50) * 1e3,
        percentile(&lat, 0.99) * 1e3,
    );
    println!(
        "[service] faults injected: {} kernel panics, {} worker stalls",
        plan.injected_panics(),
        plan.injected_stalls(),
    );
    println!(
        "[service] recovery: {} panics recovered, {} degraded retries, \
         {} execution failures, {} workers respawned",
        stats.panics_recovered,
        stats.degraded_retries,
        stats.execution_failures,
        stats.pool.workers_respawned,
    );
    println!(
        "[service] deadlines: {} misses refused, {} shed while queued, \
         {} admission timeouts",
        stats.deadline_misses, sstats.shed_expired, sstats.admission_timeouts,
    );
    println!(
        "[service] gangs under faults: {} reserved, {} refused, {} backoff retries",
        stats.pool.gang_reserved, stats.pool.gang_refused, stats.pool.gang_backoff_retries,
    );

    let report = FaultsBenchReport {
        bench: "faults".to_string(),
        fault_spec: spec,
        clients,
        reps_per_client: reps,
        ops_completed: ops,
        injected_panics: plan.injected_panics(),
        injected_stalls: plan.injected_stalls(),
        panics_recovered: stats.panics_recovered,
        degraded_retries: stats.degraded_retries,
        execution_failures: stats.execution_failures,
        workers_respawned: stats.pool.workers_respawned,
        deadline_misses: stats.deadline_misses,
        shed_expired: sstats.shed_expired,
        admission_timeouts: sstats.admission_timeouts,
        gang_backoff_retries: stats.pool.gang_backoff_retries,
        p50_latency_ms: percentile(&lat, 0.50) * 1e3,
        p99_latency_ms: percentile(&lat, 0.99) * 1e3,
    };
    let path = results_dir().join("BENCH_faults.json");
    std::fs::create_dir_all(results_dir()).expect("create results dir");
    std::fs::write(&path, serde_json::to_string(&report).expect("serialise bench"))
        .expect("write BENCH_faults.json");
    println!("[json] {}", path.display());
}

// ------------------------------------------------------------------ online

/// One phase's predicted-vs-measured error, as written to
/// `BENCH_online.json`.
#[derive(serde::Serialize, serde::Deserialize)]
struct OnlinePhaseError {
    observations: u64,
    mean_abs_log_error: f64,
    mean_abs_pct: f64,
}

/// The `BENCH_online.json` schema: the drift → retrain → hot-swap →
/// recovery arc, with the zero-downtime evidence attached.
#[derive(serde::Serialize, serde::Deserialize)]
struct OnlineBenchReport {
    bench: String,
    shapes: usize,
    rounds_per_phase: u64,
    injected_slowdown: f64,
    healthy: OnlinePhaseError,
    drifted: OnlinePhaseError,
    recovered: OnlinePhaseError,
    drift_tripped: bool,
    drift_trips: u64,
    drift_fallbacks: u64,
    retrained_routines: Vec<String>,
    retrain_observations: usize,
    swap_generation: u64,
    train_latency_ms: f64,
    swap_latency_us: f64,
    requests_during_retrain: u64,
    requests_dropped: u64,
}

/// The online feedback loop end to end: serve sim-priced traffic whose
/// "machine" matches the install-time model, inject a sustained 3×
/// slowdown until the drift detector trips, retrain from the observed
/// timings while real host traffic floods the service (nothing blocks,
/// nothing drops), hot-swap the refreshed bundle, and show the
/// prediction error recovering under the still-slowed traffic. Writes
/// `results/BENCH_online.json`.
fn online_bench() {
    use adsala::online::{retrain_now, OnlineConfig, RetrainConfig};
    use adsala_gemm::dispatch::{GemmArgs, OpRequest, OpShape, Routine};
    use adsala_gemm::Precision as GemmPrecision;
    use adsala_machine::noise::{combine, drift_slowdown, lognormal_factor};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    banner("Online adaptation — drift detection, retrain, zero-downtime hot-swap");
    const SEED: u64 = 0x0_D21F;
    const SEVERITY: f64 = 3.0;
    const SIGMA: f64 = 0.02;
    const ROUNDS: u64 = 8;

    let timer = sim_timer(Machine::Gadi, true, Affinity::CoreBased);
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("quick install");
    let bundle = install.into_bundle().into_shared();
    let service = adsala::AdsalaService::with_config(
        std::sync::Arc::clone(&bundle),
        adsala::ServiceConfig { online: OnlineConfig::enabled(), ..Default::default() },
    );

    // Eight shapes, decided at a 1-thread cap so the plan (and so the
    // injected ground truth) is pinned per shape; the "machine" runs each
    // exactly as fast as the install-time model predicts, times a factor.
    let shapes: Vec<OpShape> = (0..8u64)
        .map(|i| {
            OpShape::gemm(GemmPrecision::F32, 64 + 32 * (i % 4), 128 + 64 * (i % 3), 48 + 16 * i)
        })
        .collect();
    let baseline: Vec<f64> =
        shapes.iter().map(|&s| bundle.decide_op_capped(s, 1).predicted_runtime_s).collect();

    let run_phase = |tag: u64, severity: f64| -> OnlinePhaseError {
        let mut abs_sum = 0.0;
        let mut n = 0u64;
        for round in 0..ROUNDS {
            for (j, &shape) in shapes.iter().enumerate() {
                let d = service.select_for_capped(shape, 1);
                let factor =
                    drift_slowdown(combine(&[SEED, tag, round]), j as u64, severity, SIGMA)
                        * lognormal_factor(combine(&[SEED, tag, round, j as u64]), SIGMA);
                let measured_s = baseline[j] * factor;
                service.observe(shape, &d.plan, d.predicted_runtime_s, (measured_s * 1e9) as u64);
                abs_sum += (measured_s / d.predicted_runtime_s).ln().abs();
                n += 1;
            }
        }
        let mean = abs_sum / n.max(1) as f64;
        OnlinePhaseError {
            observations: n,
            mean_abs_log_error: mean,
            mean_abs_pct: (mean.exp() - 1.0) * 100.0,
        }
    };

    // Phase 1 — healthy traffic: measurements match the model.
    let healthy = run_phase(0, 1.0);
    println!(
        "healthy:   {:.1}% mean abs error over {} ops; drift tripped: {}",
        healthy.mean_abs_pct,
        healthy.observations,
        service.is_drifted()
    );
    // The retrainer should learn from post-drift traffic only.
    let _ = service.drain_observations();

    // Phase 2 — a sustained 3× slowdown: the detector must trip and real
    // requests must switch to the conservative fallback plan.
    let drifted = run_phase(1, SEVERITY);
    let tripped = service.is_drifted();
    println!(
        "drifted:   {:.1}% mean abs error over {} ops; drift tripped: {tripped}",
        drifted.mean_abs_pct, drifted.observations
    );
    {
        let (m, n, k) = (96usize, 64, 48);
        let a = vec![1.0f32; m * k];
        let b = vec![0.5f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (d, _) = service
            .run_with(&mut req, adsala::RunOptions::with_host_cap(2))
            .expect("drifted serve");
        println!(
            "[service] while drifted: served conservative fallback [{}] (memoised: {})",
            d.plan.describe(),
            d.memoised
        );
    }

    // Phase 3 — retrain from the drifted observations while four client
    // threads flood the service with real host traffic: every request
    // completes, none block on the swap.
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let (outcome, requests_during_retrain) = std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (service, stop, served) = (&service, &stop, &served);
            scope.spawn(move || {
                let (m, n, k) = (64usize, 48, 32);
                let a: Vec<f32> =
                    (0..m * k).map(|i| ((i + t as usize) % 13) as f32 - 6.0).collect();
                let b: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 * 0.25).collect();
                let mut c = vec![0.0f32; m * n];
                while !stop.load(Ordering::Relaxed) {
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                    service.run(&mut req).expect("request dropped during hot-swap");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Let the flood establish itself before retraining under it.
        while served.load(Ordering::Relaxed) < 32 {
            std::thread::yield_now();
        }
        let before = served.load(Ordering::Relaxed);
        let cfg = RetrainConfig { min_observations: 32, ..RetrainConfig::default() };
        let outcome = retrain_now(&service, &cfg).expect("retrain");
        let during = served.load(Ordering::Relaxed) - before;
        stop.store(true, Ordering::Relaxed);
        (outcome, during)
    });
    println!(
        "retrain: {:?} refit from {} observations in {:.1} ms; swap took {:.1} µs \
         (generation {:?}); {} requests served during the retrain, 0 dropped",
        outcome.retrained,
        outcome.observations,
        outcome.train_latency.as_secs_f64() * 1e3,
        outcome.swap_latency.as_secs_f64() * 1e6,
        outcome.swap_generation,
        requests_during_retrain,
    );

    // Phase 4 — the machine is STILL 3× slower, but the refreshed model
    // learned that from the reservoir: the error collapses back down.
    let recovered = run_phase(2, SEVERITY);
    println!(
        "recovered: {:.1}% mean abs error over {} ops; drift tripped: {}",
        recovered.mean_abs_pct,
        recovered.observations,
        service.is_drifted()
    );

    let stats = service.stats();
    println!("{}", prediction_line("online", &stats.prediction));
    println!(
        "[service] swaps {}, generation {}, drift trips {}, fallback decisions {}; \
         reservoir recorded {} (dropped on contention: {})",
        stats.swaps,
        stats.generation,
        stats.drift.trips,
        stats.drift_fallbacks,
        stats.reservoir.recorded,
        stats.reservoir.contended_drops,
    );

    let report = OnlineBenchReport {
        bench: "online".to_string(),
        shapes: shapes.len(),
        rounds_per_phase: ROUNDS,
        injected_slowdown: SEVERITY,
        healthy,
        drifted,
        recovered,
        drift_tripped: tripped,
        drift_trips: stats.drift.trips,
        drift_fallbacks: stats.drift_fallbacks,
        retrained_routines: outcome.retrained.iter().map(|r| r.as_str().to_string()).collect(),
        retrain_observations: outcome.observations,
        swap_generation: outcome.swap_generation.unwrap_or(0),
        train_latency_ms: outcome.train_latency.as_secs_f64() * 1e3,
        swap_latency_us: outcome.swap_latency.as_secs_f64() * 1e6,
        requests_during_retrain,
        requests_dropped: 0,
    };
    assert!(report.drift_tripped, "the injected slowdown must trip the detector");
    assert_eq!(report.retrained_routines, vec![Routine::Gemm.as_str().to_string()]);
    assert!(
        report.recovered.mean_abs_log_error < report.drifted.mean_abs_log_error,
        "retraining must reduce the prediction error"
    );
    let path = results_dir().join("BENCH_online.json");
    std::fs::create_dir_all(results_dir()).expect("create results dir");
    std::fs::write(&path, serde_json::to_string(&report).expect("serialise bench"))
        .expect("write BENCH_online.json");
    println!("[json] {}", path.display());
}

// ------------------------------------------------------ algorithm axis

/// One measured (shape, algorithm) row of `BENCH_algo.json`.
#[derive(serde::Serialize, serde::Deserialize)]
struct AlgoRow {
    m: u64,
    k: u64,
    n: u64,
    algorithm: String,
    seconds: f64,
    gflops: f64,
    ratio_vs_blocked: f64,
}

/// What the learned dispatcher picked for one fresh square.
#[derive(serde::Serialize, serde::Deserialize)]
struct AlgoSelection {
    m: u64,
    k: u64,
    n: u64,
    plan: String,
    algorithm: String,
    predicted_s: f64,
}

/// The `BENCH_algo.json` schema: raw per-algorithm host timings, then
/// the learned-selection leg — which driver the grid-trained model
/// routes each square onto and what actually executed.
#[derive(serde::Serialize, serde::Deserialize)]
struct AlgoBenchReport {
    bench: String,
    host: String,
    threads: u32,
    reps: u32,
    rows: Vec<AlgoRow>,
    best_large_square_ratio: f64,
    best_large_square_n: u64,
    target_ratio: f64,
    target_met: bool,
    selections: Vec<AlgoSelection>,
    strassen_selected: bool,
    executed_algorithm: String,
    plan_degraded: bool,
    mix_blocked: u64,
    mix_strassen: u64,
    mix_zorder: u64,
}

/// Beyond the paper: the algorithm axis of the execution plan on the
/// real host. Times the blocked loop nest against the Strassen
/// recursion and the Z-order driver on serial large squares (where the
/// 7-multiplications-for-8 trade genuinely pays), then trains a serial
/// algorithm-only grid and checks the learned dispatcher routes large
/// squares onto Strassen. Written to `results/BENCH_algo.json`.
fn algo_bench() {
    use adsala_gemm::dispatch::OpShape;
    use adsala_gemm::plan::{
        Algorithm, BlockScale, IsaChoice, PackingStrategy, PlanGrid, PlanPoint, FEATURE_REV_AXES,
    };
    use adsala_machine::HostTimer;

    banner("Algorithm axis — Strassen & Z-order vs blocked on the host (serial)");
    let timer = HostTimer::with_max_threads(1);
    let reps = 2u32;
    let candidates: [(&str, Algorithm); 4] = [
        ("blocked", Algorithm::Blocked),
        ("strassen_384", Algorithm::Strassen { cutoff: 384 }),
        ("strassen_512", Algorithm::Strassen { cutoff: 512 }),
        ("zorder", Algorithm::ZOrder),
    ];
    let mut rows: Vec<AlgoRow> = Vec::new();
    let mut best_ratio = 0.0f64;
    let mut best_n = 0u64;
    println!(
        "{:<8} {:>14} {:>12} {:>10} {:>12}",
        "n", "algorithm", "seconds", "gflops", "vs blocked"
    );
    for n in [1024u64, 1536, 2048, 2560] {
        let shape = GemmShape::new(n, n, n);
        let flops = 2.0 * (n as f64).powi(3);
        let mut blocked_s = 0.0f64;
        for (label, algorithm) in candidates {
            let point = PlanPoint { algorithm, ..PlanPoint::threads_only(1) };
            let seconds = timer.time_plan(shape, &point, reps);
            if algorithm == Algorithm::Blocked {
                blocked_s = seconds;
            }
            let ratio = blocked_s / seconds;
            if matches!(algorithm, Algorithm::Strassen { .. }) && n >= 2048 && ratio > best_ratio {
                best_ratio = ratio;
                best_n = n;
            }
            println!(
                "{n:<8} {label:>14} {seconds:>12.4} {:>10.2} {ratio:>12.3}",
                flops / seconds / 1e9
            );
            rows.push(AlgoRow {
                m: n,
                k: n,
                n,
                algorithm: label.to_string(),
                seconds,
                gflops: flops / seconds / 1e9,
                ratio_vs_blocked: ratio,
            });
        }
    }
    println!(
        "\nbest serial Strassen speedup on a large square: {best_ratio:.3}x at n={best_n} \
         (aspirational target 1.15x)"
    );
    assert!(
        best_ratio > 1.0,
        "Strassen should beat the blocked driver on at least one large square (best {best_ratio:.3}x)"
    );

    // Learned selection: a serial, algorithm-only grid isolates the new
    // axis — every other axis stays at its default so the decision the
    // model learns is purely "which driver".
    let grid = PlanGrid {
        threads: vec![1],
        isa: vec![IsaChoice::Dispatched],
        blockings: vec![BlockScale::default()],
        packing: vec![PackingStrategy::SharedB],
        algorithms: vec![
            Algorithm::Blocked,
            Algorithm::Strassen { cutoff: 512 },
            Algorithm::ZOrder,
        ],
        plan_features: true,
        feature_rev: FEATURE_REV_AXES,
    };
    let mut shapes: Vec<GemmShape> =
        [512u64, 768, 1024, 1536, 2048].iter().map(|&d| GemmShape::new(d, d, d)).collect();
    shapes.extend(
        DomainSampler::new(MemoryCap::paper_training(), Precision::F32, 0xA160)
            .with_dim_bounds(1, 900)
            .sample(12),
    );
    let mut records = Vec::new();
    for &shape in &shapes {
        for point in grid.points() {
            let runtime_s = timer.time_plan(shape, &point, reps);
            records.push(adsala::gather::GemmRecord { shape, point, runtime_s });
        }
    }
    let data = TrainingData {
        records,
        shapes: shapes.clone(),
        ladder: ThreadLadder { counts: vec![1] },
        grid: grid.clone(),
        machine: timer.name(),
        max_threads: 1,
    };
    // LOF would see each shape's three near-identical rows as density
    // and the large squares as outliers, and correlation pruning could
    // drop the one-hot algorithm columns the decision hinges on — keep
    // both out of this leg.
    let fitted = fit_preprocess_with(
        &data,
        PreprocessOptions { yeo_johnson: true, lof: false, corr_threshold: 1.0 },
    )
    .expect("preprocess");
    let mut model =
        adsala_ml::tune::ModelSpec::DecisionTree { max_depth: 14, min_samples_leaf: 1 }.build(0);
    model.fit(&fitted.dataset.x, &fitted.dataset.y).expect("fit");
    let artifact = adsala::Artifact::from_table(
        &timer.name(),
        fitted.config,
        adsala::ModelTable::gemm_only(model),
        grid,
    );
    let service = adsala::AdsalaService::with_config(
        artifact.into_bundle().into_shared(),
        adsala::ServiceConfig { pool_workers: 1, ..Default::default() },
    );

    println!("\n{:<8} {:>12}  learned plan", "square", "pred (s)");
    let mut selections: Vec<AlgoSelection> = Vec::new();
    let mut strassen_square: Option<u64> = None;
    for n in [2048u64, 1536, 1024, 512] {
        let d = service.select_for(OpShape::gemm(adsala_gemm::dispatch::Precision::F32, n, n, n));
        if matches!(d.plan.algorithm, Algorithm::Strassen { .. })
            && n >= 1536
            && strassen_square.is_none()
        {
            strassen_square = Some(n);
        }
        println!("{n:<8} {:>12.3e}  [{}]", d.predicted_runtime_s, d.plan.describe());
        selections.push(AlgoSelection {
            m: n,
            k: n,
            n,
            plan: d.plan.describe(),
            algorithm: format!("{:?}", d.plan.algorithm),
            predicted_s: d.predicted_runtime_s,
        });
    }
    let strassen_selected = strassen_square.is_some();
    assert!(
        strassen_selected,
        "the learned dispatcher should route at least one large square onto Strassen"
    );

    // Serve the Strassen-routed square for real so the executed plan —
    // and the service's algorithm-mix telemetry — is on record.
    let serve_n = strassen_square.expect("asserted above") as usize;
    let (exec_algorithm, degraded) = {
        use adsala_gemm::dispatch::{GemmArgs, OpRequest};
        let (m, n, k) = (serve_n, serve_n, serve_n);
        let a: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32 - 6.0) * 0.25).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 11) as f32 - 5.0) * 0.5).collect();
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (d, stats) = service.run(&mut req).expect("serve large square");
        println!(
            "[service] sgemm {m}x{k}x{n}: requested [{}], executed algorithm={:?} degraded={}",
            d.plan.describe(),
            stats.exec.algorithm,
            stats.plan_degraded
        );
        (stats.exec.algorithm, stats.plan_degraded)
    };
    assert!(
        matches!(exec_algorithm, Algorithm::Strassen { .. }) && !degraded,
        "the served large square should execute the Strassen recursion undegraded"
    );
    let mix = service.stats().algorithms;
    println!(
        "[service] executed algorithms: {} blocked, {} strassen, {} z-order",
        mix.blocked, mix.strassen, mix.zorder
    );

    let report = AlgoBenchReport {
        bench: "algorithm_axis".to_string(),
        host: timer.name(),
        threads: 1,
        reps,
        rows,
        best_large_square_ratio: best_ratio,
        best_large_square_n: best_n,
        target_ratio: 1.15,
        target_met: best_ratio >= 1.15,
        selections,
        strassen_selected,
        executed_algorithm: format!("{exec_algorithm:?}"),
        plan_degraded: degraded,
        mix_blocked: mix.blocked,
        mix_strassen: mix.strassen,
        mix_zorder: mix.zorder,
    };
    let path = results_dir().join("BENCH_algo.json");
    std::fs::create_dir_all(results_dir()).expect("create results dir");
    std::fs::write(&path, serde_json::to_string(&report).expect("serialise bench"))
        .expect("write BENCH_algo.json");
    println!("[json] {}", path.display());
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
fn gflops_buckets(machine: Machine, tag: &str) {
    banner(&format!(
        "{} — GFLOPS vs memory bucket on {} ({} baseline vs ML)",
        if machine == Machine::Setonix { "Fig. 11" } else { "Fig. 12" },
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
        &format!("{tag}_gflops_{}.csv", machine.name()),
        "bucket,baseline_gflops,ml_gflops",
        &rows,
    );
}

// ------------------------------------------------------------ figs 13/14

/// Figs. 13/14: the predesigned-shape sweeps — six rows (shape families)
/// by four fixed values, baseline vs ML GFLOPS.
fn predesigned(machine: Machine, tag: &str) {
    banner(&format!(
        "{} — predesigned GEMM sweeps on {} ({} default vs ML)",
        if machine == Machine::Setonix { "Fig. 13" } else { "Fig. 14" },
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
                let d = runtime.select_threads(shape.m, shape.k, shape.n);
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
        &format!("{tag}_predesigned_{}.csv", machine.name()),
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
        let chosen = runtime.select_threads(shape.m, shape.k, shape.n).threads();
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
            ladder: data.ladder.clone(),
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
/// mapping (see `adsala_machine::ops`).
fn ops_extension() {
    banner("Future work — ML thread selection for SYRK and GEMV (Setonix model)");
    use adsala_machine::{BlasOp, OpTimer};
    for op in [BlasOp::Syrk, BlasOp::Gemv] {
        let timer = OpTimer::new(Machine::Setonix.model(true), op);
        let mut cfg = InstallConfig::quick();
        cfg.families = vec![ModelKind::DecisionTree, ModelKind::XgBoost];
        cfg.gather.n_shapes = 250;
        // SYRK's output is m×m: keep m small enough that C itself obeys
        // the 500 MB cap, for training and probing alike.
        if op == BlasOp::Syrk {
            cfg.gather.max_dim = Some(8000);
        }
        let install = Installation::run(&timer, &cfg).expect("install");
        let p_max = timer.max_threads();
        let selected = install.selected;
        let runtime = install.into_service();
        // Fresh Halton shapes from the same domain, restricted to the
        // routine's live dimensions.
        let mut sampler = DomainSampler::new(MemoryCap::paper_training(), Precision::F32, 0x0B5);
        if let Some(max_dim) = cfg.gather.max_dim {
            sampler = sampler.with_dim_bounds(1, max_dim);
        }
        let shapes: Vec<GemmShape> = sampler
            .sample(200)
            .into_iter()
            .map(|s| match op {
                BlasOp::Syrk => GemmShape::new(s.m, s.k, s.m),
                BlasOp::Gemv => GemmShape::new(s.m, s.k, 1),
                BlasOp::Gemm => s,
            })
            .filter(|s| s.memory_bytes(Precision::F32) <= MemoryCap::paper_training().bytes)
            // Degenerate inputs (a handful of elements) trivially favour
            // one thread by enormous factors; exclude them as
            // uninteresting rather than let them dominate the mean.
            .filter(|s| s.m >= 32 && s.k >= 32)
            .take(80)
            .collect();
        let mut speedups: Vec<f64> = Vec::new();
        let mut rows = Vec::new();
        for &s in &shapes {
            let d = runtime.select_threads(s.m, s.k, s.n);
            let t_max = timer.time(s, p_max, 5);
            let t_ml = timer.time(s, d.threads(), 5);
            speedups.push(t_max / t_ml);
            rows.push(format!(
                "{},{},{},{},{:.6e},{:.6e}",
                op.name(),
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
            op.name(),
            stats.mean,
            stats.p50,
            stats.max,
            shapes.len(),
            selected
        );
        write_csv(
            &format!("ops_{}_speedups.csv", op.name().to_lowercase()),
            "op,d1,d2,chosen_threads,t_max_s,t_ml_s",
            &rows,
        );
    }
}

// ---------------------------------------------------------------- ablations

fn ablation(name: &str) {
    match name {
        "yj" => ablation_preprocess(
            "yj",
            PreprocessOptions { yeo_johnson: false, ..Default::default() },
        ),
        "lof" => ablation_preprocess("lof", PreprocessOptions { lof: false, ..Default::default() }),
        "corr" => ablation_preprocess(
            "corr",
            PreprocessOptions { corr_threshold: 1.01, ..Default::default() },
        ),
        "halton" => ablation_halton(),
        "memo" => ablation_memo(),
        "eval-overhead" => ablation_eval_overhead(),
        other => {
            eprintln!("unknown ablation `{other}` (yj|lof|corr|halton|memo|eval-overhead)");
            std::process::exit(2);
        }
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
            ladder: ladder.clone(),
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
        adsala::ServiceConfig { pool_workers: 1, ..Default::default() },
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
            service.select_threads(64 + i as u64, 2048, 64);
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    let t_svc_hot = {
        service.select_for(shape);
        let start = Instant::now();
        for _ in 0..reps {
            service.select_for(shape);
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    let stats = service.cache_stats();
    println!("unmemoised selection (model sweep):      {:.2} us", t_sweep * 1e6);
    println!("service cold selection (fresh shapes):   {:.2} us", t_svc_cold * 1e6);
    println!("service memoised selection (hot shape):  {:.3} us", t_svc_hot * 1e6);
    println!("memoisation saves {:.0}x", t_sweep / t_svc_hot.max(1e-12));
    println!("[service] kernel dispatch: {}", adsala_machine::HostCaches::probe().summary());
    println!(
        "service cache: {} hits / {} misses, {} evictions, {}/{} entries, {} sweeps",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.entries,
        stats.capacity,
        service.evaluations()
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
