//! `perfbench`: the standing benchmark of the ADSALA serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! One process measures one workload. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` replays the workload with spans around every layer
//! boundary and reports the per-layer metrics. The last line of standard
//! output is the result object; the line before it is the detailed report
//! (host fingerprint, and every metric with unit, MAD, sample count and a
//! host/sim label). See `README.md` beside `Cargo.toml`.

mod engine;
mod layers;
mod micro;
mod oracle;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use engine::{Aggregate, Context, LadderRow, LADDER_MAX_REQUESTS, LADDER_SPANS_PER_REQUEST};
use report::{Fingerprint, Metrics, END_TO_END, PER_LAYER};
use spans::SpanBuf;
use stats::{median, percentile, Summary};
use workloads::WorkloadKind;

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;
/// Repetitions a run times at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: WorkloadKind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(WorkloadKind::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Environment variables that change what the library executes. The first
/// two make every number meaningless as a baseline, so a run refuses them.
const ENV_REFUSED: [&str; 2] = ["ADSALA_FORCE_SCALAR", "ADSALA_FAULTS"];
const ENV_RECORDED: [&str; 3] = ["ADSALA_FORCE_SCALAR", "ADSALA_FAULTS", "ADSALA_RESULTS_DIR"];

fn env_set(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs since boot (`/proc/stat`): time the
/// hypervisor gave to other guests while this one wanted to run.
fn cpu_jiffies() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen from this guest since `before`: a run taken
/// while this is more than a few percent measured the neighbours.
fn steal_share_since(before: Option<(f64, f64)>) -> String {
    match (before, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!("{:.4}", (s1 - s0) / (t1 - t0)),
        _ => "unknown".to_string(),
    }
}

/// The commit checked out in the working directory, if it is a git
/// checkout (the driver's is not).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|rev| rev.trim().to_string()),
        None => Some(head.trim().to_string()),
    }
}

/// `rustc --version` of the toolchain on the path.
fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc").arg("--version").output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fingerprint(args: &Args, ctx: &Context) -> Fingerprint {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caches = layers::detected_caches()
        .map_or("undetected".to_string(), |(l1, l2, l3)| format!("l1d={l1} l2={l2} l3={l3}"));
    let mut fields = vec![
        ("nproc", nproc.to_string()),
        ("pool_workers", layers::pool_workers().to_string()),
        ("clients", ctx.clients.len().to_string()),
        ("kernel_isa", layers::dispatched_isa()),
        ("caches", caches),
        ("stream_source_bytes", micro::stream_source_bytes().to_string()),
        ("decision_source", layers::DECISION_SOURCE.to_string()),
        ("artifact_hash", format!("{:016x}", ctx.env.installed.artifact_hash)),
        ("trace_hash", format!("{:016x}", ctx.env.workload.trace_hash())),
        ("requests_per_rep", ctx.env.workload.requests_per_rep().to_string()),
        ("flops_per_rep", ctx.env.workload.flops_per_rep().to_string()),
        ("git_rev", git_rev().unwrap_or_else(|| "unknown".to_string())),
        ("rustc", rustc_version().unwrap_or_else(|| "unknown".to_string())),
        ("smoke", args.smoke.to_string()),
    ];
    for name in ENV_RECORDED {
        fields.push((name, env_set(name).unwrap_or_default()));
    }
    Fingerprint { fields }
}

/// What a run hands back: the two JSON lines, and the metrics behind them.
pub struct Outcome {
    pub detailed: String,
    pub result: String,
    pub metrics: Metrics,
}

/// Repetitions as timed: each one's wall-clock seconds, and the host's
/// core clock around it (the mean of a reading before and one after).
struct Timed {
    walls: Vec<f64>,
    ghz: Vec<f64>,
}

impl Timed {
    /// Run repetitions for as long as `next` says (see
    /// [`Context::repetitions`]), reading the host clock between them.
    fn run(ctx: &mut Context, mut next: impl FnMut(&engine::Env, &[f64]) -> Option<bool>) -> Timed {
        let mut readings = Vec::new();
        let walls = ctx.repetitions(|env, walls| {
            readings.push(micro::host_clock_ghz());
            next(env, walls)
        });
        let ghz = readings.windows(2).map(|pair| (pair[0] + pair[1]) / 2.0).collect();
        Timed { walls, ghz }
    }

    /// Each repetition's length in billions of core cycles.
    fn gcycles(&self) -> impl Iterator<Item = f64> + '_ {
        self.walls.iter().zip(&self.ghz).map(|(wall, ghz)| wall * ghz)
    }

    /// Every request latency of the run in core cycles: a client's
    /// latencies are in repetition order, one trace length per repetition.
    fn latency_cycles(&self, ctx: &Context) -> Vec<u64> {
        ctx.clients
            .iter()
            .flat_map(|c| {
                let per_rep = c.latencies_ns.len() / self.walls.len().max(1);
                c.latencies_ns
                    .chunks(per_rep.max(1))
                    .zip(&self.ghz)
                    .flat_map(|(chunk, ghz)| chunk.iter().map(move |&ns| (ns as f64 * ghz) as u64))
            })
            .collect()
    }
}

/// Time repetitions until `seconds` have passed (and at least
/// [`MIN_REPS`]).
fn timed_reps(ctx: &mut Context, seconds: f64) -> Timed {
    let start = Instant::now();
    Timed::run(ctx, |_, walls| {
        (walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds).then_some(false)
    })
}

fn pooled_latencies(ctx: &Context) -> Vec<u64> {
    ctx.clients.iter().flat_map(|c| c.latencies_ns.iter().copied()).collect()
}

fn totals(ctx: &Context) -> (u64, u64) {
    ctx.clients.iter().fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
}

/// `--trace 0`: set-up [`SETUPS`] times, then timed repetitions.
fn end_to_end(args: &Args) -> Outcome {
    let build = || {
        let start = Instant::now();
        let built = engine::set_up(
            workloads::build(args.workload, args.seed, args.smoke),
            args.seed,
            args.smoke,
        );
        (start.elapsed().as_secs_f64(), built)
    };
    // The first set-up is the one measured on, and the process's peak
    // memory is read before any other exists: what one real process that
    // sets up once and serves would show.
    let (first_setup_s, (mut ctx, oracle_trips)) = build();
    let mut setups = vec![first_setup_s];
    let jiffies = cpu_jiffies();
    let timed = timed_reps(&mut ctx, args.seconds as f64);
    let peak_rss = peak_rss_mb();
    let requests = ctx.env.workload.requests_per_rep() as f64;
    let flops = ctx.env.workload.flops_per_rep() as f64;
    let latency_cycles = timed.latency_cycles(&ctx);
    let (attempted, failed) = totals(&ctx);
    let mut fingerprint = fingerprint(args, &ctx);
    fingerprint.fields.push(("host_clock_ghz", format!("{:.4}", median(&timed.ghz))));
    fingerprint.fields.push(("host_steal_share", steal_share_since(jiffies)));
    // The remaining set-ups only steady `setup_s`; each stack (pool
    // threads, operands) goes before the next is built.
    drop(ctx);
    for _ in 1..if args.smoke { 1 } else { SETUPS } {
        setups.push(build().0);
    }

    let mut m = Metrics::default();
    m.host("setup_s", Summary::of(&setups));
    m.noted(
        "throughput_ops_per_gcycle",
        Summary::of(&timed.gcycles().map(|g| requests / g).collect::<Vec<_>>()),
        "requests of a repetition over its length in 1e9 core cycles (wall time x the clock read around it)",
    );
    m.noted(
        "flops_per_cycle",
        Summary::of(&timed.gcycles().map(|g| flops / g / 1e9).collect::<Vec<_>>()),
        "useful FLOPs of a repetition over its length in core cycles, all threads together",
    );
    m.noted(
        "latency_p50_kcycles",
        Summary {
            median: percentile(&latency_cycles, 50.0) / 1e3,
            mad: 0.0,
            n: latency_cycles.len(),
        },
        "pooled over repetitions and clients; each latency times the clock read around its repetition",
    );
    m.host("peak_rss_mb", Summary::single(peak_rss));

    let correct = failed == 0 && oracle_trips;
    Outcome {
        detailed: report::detailed_json(
            args.workload.name(),
            args.seed,
            &fingerprint,
            &m,
            &END_TO_END,
        ),
        result: report::result_json(correct, attempted, failed, &m, &END_TO_END),
        metrics: m,
    }
}

fn median_of(rows: &[LadderRow], f: impl Fn(&LadderRow) -> Option<f64>) -> Summary {
    Summary::of(&rows.iter().filter_map(f).collect::<Vec<_>>())
}

/// Metrics read off the ladder replay.
fn ladder_metrics(m: &mut Metrics, rows: &[LadderRow]) {
    let us = 1e-3;
    m.noted(
        "scheduler.overhead_us",
        median_of(rows, |r| Some((r.submit as f64 - r.run as f64) * us)),
        "scheduler.submit minus service.run on the same request, one client",
    );
    m.noted(
        "service.overhead_us",
        median_of(rows, |r| r.raw.map(|raw| (r.run as f64 - raw as f64) * us)),
        "service.run minus the raw pooled driver at the same plan and operands (GEMM requests)",
    );
    m.noted(
        "service.pinned_overhead_us",
        median_of(rows, |r| r.raw.map(|raw| (r.pinned as f64 - raw as f64) * us)),
        "service.run_pinned minus the raw pooled driver (GEMM requests)",
    );
    let (run, raw) = rows
        .iter()
        .filter_map(|r| r.raw.map(|raw| (r.run as f64, raw as f64)))
        .fold((0.0, 0.0), |(a, b), (run, raw)| (a + run, b + raw));
    m.noted(
        "service.overhead_share",
        Summary::single((run - raw) / run),
        "summed service.run minus raw driver time, over summed service.run time (GEMM requests)",
    );
    m.host("service.validate_ns", median_of(rows, |r| Some(r.validate as f64)));
    let decide = median(&rows.iter().map(|r| r.decide as f64).collect::<Vec<_>>());
    let pinned = median(&rows.iter().map(|r| r.pinned as f64).collect::<Vec<_>>());
    m.sim(
        "select.eval_share",
        Summary::single(decide / (decide + pinned)),
        "median decide time over median decide plus median pinned execute; decisions are cache hits except on cold_shapes",
    );
}

/// Metrics summed from what served requests reported and from the
/// service's and scheduler's own counters.
fn counter_metrics(
    m: &mut Metrics,
    ctx: &Context,
    agg: &Aggregate,
    cache_hit_rate: f64,
    evictions_per_rep: f64,
) {
    m.noted(
        "pack.time_share",
        Summary::single(agg.pack_ns as f64 / (agg.pack_ns + agg.kernel_ns) as f64),
        "pack time over pack plus kernel time, summed over threads and requests",
    );
    m.noted(
        "gemm.sync_share",
        Summary::single(agg.sync_ns as f64 / agg.wall_ns as f64),
        "wall time not covered by the busiest thread, over wall time",
    );
    m.noted(
        "gemm.kernel_share",
        Summary::single(agg.kernel_ns as f64 / agg.thread_ns as f64),
        "kernel time over wall time x threads used",
    );
    m.sim(
        "select.threads_mean",
        Summary::single(agg.threads as f64 / agg.served as f64),
        "mean thread count of the plans served",
    );
    m.sim(
        "select.nonblocked_share",
        Summary::single(agg.nonblocked as f64 / agg.served as f64),
        "share of served plans whose algorithm is Strassen or Z-order",
    );
    m.host("cache.hit_rate", Summary::single(cache_hit_rate));
    m.noted("cache.evictions", Summary::single(evictions_per_rep), "per untraced repetition");

    let sched = ctx.env.stack.scheduler_stats();
    let service = ctx.env.stack.service_stats();
    m.host("pool.gang_refusal_rate", Summary::single(service.pool.refusal_rate()));
    m.host("pool.workers_respawned", Summary::single(service.pool.workers_respawned as f64));
    m.host("service.plan_downgrades", Summary::single(service.plan_downgrades as f64));
    m.host("service.degraded_retries", Summary::single(service.degraded_retries as f64));
    m.noted(
        "scheduler.fused_share",
        Summary::single(sched.fused_ops as f64 / sched.completed as f64),
        "ops that ran in a fused batch over ops the scheduler completed",
    );
    m.host("scheduler.waves_per_op", Summary::single(sched.waves as f64 / sched.completed as f64));
    m.host("scheduler.admission_waits", Summary::single(sched.admission_waits as f64));
    m.host("scheduler.max_queue_depth", Summary::single(sched.max_queue_depth as f64));
    m.host("scheduler.shed_expired", Summary::single(sched.shed_expired as f64));
    m.sim(
        "scheduler.makespan_ratio",
        Summary::single(sched.measured_makespan_s / sched.predicted_makespan_s),
        "measured wave makespan on this host over the sim-trained model's prediction",
    );
}

/// `--trace 1`: one set-up, untraced and traced repetitions in turn, the
/// ladder replay, and the single-layer probes.
fn per_layer(args: &Args) -> Outcome {
    let install_start = Instant::now();
    drop(layers::install(args.smoke));
    let install_s = install_start.elapsed().as_secs_f64();
    let (gather_s, preprocess_s) = layers::install_stage_seconds(args.smoke);

    let (mut ctx, oracle_trips) = engine::set_up(
        workloads::build(args.workload, args.seed, args.smoke),
        args.seed,
        args.smoke,
    );

    // Untraced and traced repetitions alternate, so that drift on the
    // host falls on both alike; a third of the run's seconds goes here.
    let pairs_budget = Duration::from_secs_f64(args.seconds as f64 / 3.0);
    ctx.reserve_spans(4 * MIN_REPS);
    let mut cache_before_rep = Vec::new();
    let jiffies = cpu_jiffies();
    let pairs_start = Instant::now();
    let timed = Timed::run(&mut ctx, |env, walls| {
        cache_before_rep.push(env.stack.service_stats().cache);
        let more = walls.len() < 2 * MIN_REPS
            || (walls.len() % 2 == 1 || pairs_start.elapsed() < pairs_budget);
        more.then_some(walls.len() % 2 == 1)
    });
    let (plain, traced): (Vec<f64>, Vec<f64>) =
        timed.walls.chunks_exact(2).map(|pair| (pair[0], pair[1])).unzip();
    // Cache traffic of the untraced repetitions only.
    let mut cache_delta = (0u64, 0u64, 0u64);
    for pair in cache_before_rep.chunks_exact(2) {
        cache_delta.0 += pair[1].hits - pair[0].hits;
        cache_delta.1 += pair[1].misses - pair[0].misses;
        cache_delta.2 += pair[1].evictions - pair[0].evictions;
    }
    let overhead: Vec<f64> = plain.iter().zip(&traced).map(|(p, t)| 1.0 - p / t).collect();
    let mut agg = Aggregate::default();
    ctx.clients.iter().for_each(|c| agg.merge(&c.agg));

    let mut ladder_spans = SpanBuf::with_capacity(LADDER_MAX_REQUESTS * LADDER_SPANS_PER_REQUEST);
    let rows = ctx.ladder(&mut ladder_spans);
    let (attempted, failed) = totals(&ctx);

    let mut m = Metrics::default();
    micro::run(&mut m, &ctx.env.installed, args.smoke);
    ladder_metrics(&mut m, &rows);
    counter_metrics(
        &mut m,
        &ctx,
        &agg,
        cache_delta.0 as f64 / (cache_delta.0 + cache_delta.1) as f64,
        cache_delta.2 as f64 / plain.len() as f64,
    );
    m.sim(
        "install.gather_s",
        Summary::single(gather_s),
        "host time of the simulator sweep over the install's shapes and grid",
    );
    m.host("install.preprocess_s", Summary::single(preprocess_s));
    m.noted(
        "install.train_s",
        Summary::single(install_s - gather_s - preprocess_s),
        "the rest of Installation::run: tune, score, refit",
    );
    m.noted("trace.overhead_share", Summary::of(&overhead), "1 - untraced/traced repetition time, paired; recording a span per request and summing its report");
    m.host("failed_share", Summary::single(failed as f64 / attempted as f64));
    // The wall-clock forms of the end-to-end timings: reported, not gated,
    // because the host's core clock moves them by tens of percent between
    // minutes (README, "Repeatability and bounds").
    let (requests, flops) =
        (ctx.env.workload.requests_per_rep() as f64, ctx.env.workload.flops_per_rep() as f64);
    m.noted(
        "throughput_ops_s",
        Summary::of(&plain.iter().map(|w| requests / w).collect::<Vec<_>>()),
        "untraced repetitions of this run",
    );
    m.noted(
        "gflops",
        Summary::of(&plain.iter().map(|w| flops / w / 1e9).collect::<Vec<_>>()),
        "untraced repetitions of this run",
    );
    let latencies = pooled_latencies(&ctx);
    let pooled =
        |p: f64| Summary { median: percentile(&latencies, p) / 1e3, mad: 0.0, n: latencies.len() };
    m.noted("latency_p50_us", pooled(50.0), "untraced and traced repetitions of this run");
    m.noted("latency_p95_us", pooled(95.0), "untraced and traced repetitions of this run");
    m.noted(
        "host.clock_ghz",
        Summary::of(&timed.ghz),
        "core clock read off the FMA loop around each repetition; what the end-to-end metrics divide by",
    );

    // The span file: top-level spans of the traced repetitions, then the
    // ladder replay. Beside the executable, so inside the build directory.
    let kept = ctx.clients.iter().map(|c| c.spans.spans().len()).sum::<usize>();
    let mut all = SpanBuf::with_capacity(kept + ladder_spans.spans().len());
    for client in &ctx.clients {
        all.append(&client.spans);
    }
    all.append(&ladder_spans);
    let span_path = std::env::current_exe().ok().and_then(|exe| {
        Some(exe.parent()?.join(format!("perfbench-spans-{}.jsonl", args.workload.name())))
    });
    if let Some(path) = &span_path {
        if let Err(e) = all.write_jsonl(path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }

    let mut fp = fingerprint(args, &ctx);
    fp.fields.push(("host_steal_share", steal_share_since(jiffies)));
    fp.fields.push(("span_file", span_path.map_or(String::new(), |p| p.display().to_string())));
    fp.fields.push(("spans", format!("{} kept, {} dropped", all.spans().len(), all.dropped)));
    let correct = failed == 0 && oracle_trips;
    Outcome {
        detailed: report::detailed_json(args.workload.name(), args.seed, &fp, &m, &PER_LAYER),
        result: report::result_json(correct, attempted, failed, &m, &PER_LAYER),
        metrics: m,
    }
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        per_layer(args)
    } else {
        end_to_end(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <small_repeat|cold_shapes|large_compute|mixed_clients> --seed <u64> --seconds <n> --trace <0|1> [--smoke]");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = ENV_REFUSED.into_iter().find(|n| env_set(n).is_some()) {
        eprintln!("perfbench: {name} is set; it changes what the library executes, so no numbers are reported");
        return ExitCode::from(3);
    }
    let outcome = run(&args);
    println!("{}", outcome.detailed);
    println!("{}", outcome.result);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: WorkloadKind, trace: bool) -> Outcome {
        run(&Args { workload, seed: 5, seconds: 0, trace, smoke: true })
    }

    /// All four workloads, both modes, tiny counts: every metric name of
    /// the mode exactly once, nothing failed.
    #[test]
    fn smoke_runs_emit_every_metric_exactly_once() {
        let start = Instant::now();
        for workload in WorkloadKind::ALL {
            for (trace, order) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let out = smoke(workload, trace);
                let mut names = out.metrics.names();
                names.sort_unstable();
                let mut expected: Vec<_> = order.iter().map(|(n, _)| *n).collect();
                expected.sort_unstable();
                assert_eq!(names, expected, "{} trace={trace}", workload.name());
                assert!(
                    out.result.starts_with("{\"correct\":true,")
                        && out.result.contains("\"failed\":0,"),
                    "{} trace={trace}: {}",
                    workload.name(),
                    out.result
                );
            }
        }
        assert!(start.elapsed() < Duration::from_secs(30), "smoke runs are meant to be quick");
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&argv("--workload cold_shapes --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace, ok.smoke),
            (WorkloadKind::ColdShapes, 9, 10, true, false)
        );
        assert!(parse_args(&argv("--workload cold_shapes --seed 9 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload nope --seed 9 --seconds 10 --trace 0")).is_err());
        assert!(
            parse_args(&argv("--workload cold_shapes --seed 9 --seconds 10 --trace 2")).is_err()
        );
        assert!(
            parse_args(&argv("--workload cold_shapes --seed -1 --seconds 10 --trace 0")).is_err()
        );
    }
}
