//! Chaos and deadline tests for the fault-tolerance layer: injected
//! kernel panics must never escape to a client, every pool worker must
//! outlive them and keep its packing arena allocation-steady, an op
//! whose deadline passes before it starts must be refused with an honest
//! `Timeout`, and a stall must end when its plan is cleared.
//!
//! The quick bundle's grid is threads-only, the degraded retry runs the
//! same dispatched kernel at the default blocking, and the thread count
//! changes no result bit, so every result its service serves, recovered
//! ones included, must equal the serial driver's bit for bit
//! (`assert_bitwise`). Only the v3 fixture's service, whose grid sweeps
//! block scales, is held to a tolerance (`assert_close`).
//!
//! Fault state (`adsala_gemm::fault::set_plan`) is process-global, so
//! every test that installs a plan serializes on one mutex and clears
//! the plan through a drop guard — a failing assertion cannot leak
//! faults into a neighbouring test.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use adsala::bundle::quick_test_bundle as quick_bundle;
use adsala::prelude::*;
use adsala_gemm::fault::{self, FaultPlan};
use adsala_gemm::gemm::{gemm_with_stats, GemmCall};
use adsala_gemm::gemv::gemv_with_stats;
use adsala_gemm::plan::Algorithm;
use adsala_gemm::pool::ThreadPool;
use adsala_gemm::syrk::syrk_with_stats;
use adsala_gemm::workspace::thread_arena_stats;

fn fault_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Clears the global fault plan when dropped, even on a panicking
/// assertion, so the suite's other tests start fault-free.
struct PlanGuard;

impl Drop for PlanGuard {
    fn drop(&mut self) {
        fault::set_plan(None);
    }
}

/// Take the suite's fault lock. A test that runs a kernel outside a
/// pool (a serial reference, say) while *another* test's plan that is
/// not workers-only is armed would eat that plan's panic budget, so such a test
/// holds the lock from its first kernel call and [`arm`]s under it.
fn hold_fault_lock() -> MutexGuard<'static, ()> {
    fault_lock().lock().unwrap_or_else(|e| e.into_inner())
}

/// Install `plan`; the caller holds the fault lock. Returns the cleanup
/// guard and the installed plan for reading its injection counters.
fn arm(plan: FaultPlan) -> (PlanGuard, Arc<FaultPlan>) {
    let plan = fault::set_plan(Some(plan)).expect("installed");
    (PlanGuard, plan)
}

/// Serialize on the global fault state and install `plan`. Returns the
/// lock (held for the test's duration), the cleanup guard, and the
/// installed plan for reading its injection counters.
fn install(plan: FaultPlan) -> (MutexGuard<'static, ()>, PlanGuard, Arc<FaultPlan>) {
    let lock = hold_fault_lock();
    let (guard, plan) = arm(plan);
    (lock, guard, plan)
}

fn service(workers: usize) -> AdsalaService {
    AdsalaService::with_config(
        quick_bundle().into_shared(),
        ServiceConfig { pool_workers: workers },
    )
}

fn fill(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 350.0
        })
        .collect()
}

/// Serial single-threaded reference for `C = A·B` (β = 0).
fn serial_reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_with_stats(&GemmCall::new(m, n, k, 1), 1.0, a, k, b, n, 0.0, &mut c, n);
    c
}

/// Poll until `ready` (the state an interleaving needs before its next
/// step) or fail after 20 s.
fn wait_for(what: &str, ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `c` holds exactly the bits of `c_ref`.
fn assert_bitwise(c: &[f32], c_ref: &[f32], what: &str) {
    assert_eq!(c.len(), c_ref.len(), "{what}: length");
    if let Some(i) = c.iter().zip(c_ref).position(|(x, y)| x.to_bits() != y.to_bits()) {
        panic!("{what}: c[{i}] = {} vs reference {}", c[i], c_ref[i]);
    }
}

/// `c` agrees with `c_ref` to a relative 1e-3: for a plan whose cache
/// blocking may differ from the reference's, and so its rounding.
fn assert_close(c: &[f32], c_ref: &[f32], what: &str) {
    for (i, (x, y)) in c.iter().zip(c_ref).enumerate() {
        assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "{what}: c[{i}] = {x} vs reference {y}");
    }
}

/// The acceptance-criteria chaos test: one fault plan injects kernel
/// panics into pool workers while 8 clients flood the service with
/// mixed shapes. Every client must get the serial driver's bits (a
/// degraded retry is allowed), the panics must be counted while no
/// worker is lost, and once the plan is cleared a large op must run
/// undegraded on the full pool.
#[test]
fn chaos_flood_isolates_injected_panics_from_every_client() {
    let (_lock, guard, plan) = install(FaultPlan::panics(3).on_workers_only());
    let svc = service(4);

    // Mixed shapes: the big symmetric ones decide multi-threaded plans
    // (whose jobs run on pool workers, where a workers-only fault fires), the
    // small ones run serial and can never be hit.
    let shapes: [(usize, usize, usize); 4] =
        [(256, 256, 256), (384, 384, 384), (48, 48, 64), (64, 64, 64)];
    let clients = 8usize;
    let reps = 3usize;

    std::thread::scope(|scope| {
        for client in 0..clients {
            let svc = &svc;
            scope.spawn(move || {
                for rep in 0..reps {
                    let (m, n, k) = shapes[(client + rep) % shapes.len()];
                    let a = fill(m * k, (client * 100 + rep) as u64 + 1);
                    let b = fill(k * n, (client * 100 + rep) as u64 + 51);
                    let c_ref = serial_reference(m, n, k, &a, &b);
                    let mut c = vec![0.0f32; m * n];
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                    svc.run(&mut req).expect("no client may observe a panic");
                    assert_bitwise(&c, &c_ref, "chaos flood result");
                }
            });
        }
    });

    assert!(plan.injected_panics() >= 1, "fault plan never fired during the flood");
    let stats = svc.stats();
    assert!(stats.panics_recovered >= 1, "panic not counted: {stats:?}");
    assert!(stats.degraded_retries >= 1, "no degraded retry recorded: {stats:?}");
    assert_eq!(stats.execution_failures, 0, "a request was dropped: {stats:?}");
    assert_eq!(stats.pool.workers_respawned, 0, "workers outlive a panic: {stats:?}");

    // Faults off: a subsequent large op must run undegraded and
    // multi-threaded on the whole pool.
    drop(guard);
    let (m, n, k) = (256usize, 256usize, 256usize);
    let a = fill(m * k, 901);
    let b = fill(k * n, 902);
    let c_ref = serial_reference(m, n, k, &a, &b);
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let (_, post) =
        svc.run_with(&mut req, RunOptions::with_host_cap(4)).expect("post-recovery run");
    assert!(!post.plan_degraded, "post-recovery op should not be degraded");
    assert!(post.exec.threads_used >= 2, "post-recovery op did not split into tasks: {post:?}");
    assert_bitwise(&c, &c_ref, "post-recovery result");
    assert_eq!(svc.stats().pool.workers, 4, "pool lost a worker permanently");
}

/// After more panics than the pool has workers, each isolated, the pool
/// must serve the *entire* plan grid again: pinned plans at every width
/// up to the worker count split into exactly that many tasks. (The task
/// count cannot see a lost worker; `pool::tests` checks that every worker
/// survives its panics.)
#[test]
fn pool_serves_full_plan_grid_after_recovery() {
    let (_lock, guard, plan) = install(FaultPlan::panics(6).on_workers_only());
    let svc = service(4);

    let (m, n, k) = (256usize, 256usize, 256usize);
    let a = fill(m * k, 11);
    let b = fill(k * n, 12);
    let c_ref = serial_reference(m, n, k, &a, &b);
    // A panicking batch may fire the fault on several of its tasks; run
    // until the whole budget has fired, every op recovering.
    for _ in 0..100 {
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        svc.run(&mut req).expect("panicked op must recover");
        assert_bitwise(&c, &c_ref, "recovered result");
        if plan.injected_panics() == 6 {
            break;
        }
    }
    assert_eq!(plan.injected_panics(), 6);

    drop(guard);
    for threads in [1u32, 2, 4] {
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let stats = svc
            .run_pinned(&mut req, &ExecutionPlan::with_threads(threads))
            .expect("pinned run after the panics");
        assert_eq!(stats.exec.threads_used, threads as usize, "plan width {threads} not split so");
        assert_bitwise(&c, &c_ref, "pinned post-recovery result");
    }
    let pool = svc.stats().pool;
    assert_eq!(pool.workers, 4);
    assert_eq!(pool.workers_respawned, 0, "no worker is ever replaced: {pool:?}");
}

/// A panicked batch must not leak packing-arena state. The worker that
/// ran the panicking job keeps its workspace slot, so once every slot is
/// warm the calls that follow a panic allocate nothing.
#[test]
fn packing_arenas_stay_allocation_steady_after_a_panic() {
    let _lock = hold_fault_lock();
    let _guard = PlanGuard;
    fault::set_plan(None);
    let svc = service(4);

    let (m, n, k) = (256usize, 256usize, 256usize);
    let a = fill(m * k, 21);
    let b = fill(k * n, 22);
    // The degraded retry runs serial on *this* thread, so warm the
    // caller's thread-local arena with the same shape the retry will pack,
    // and the worker slots with pooled runs.
    let degraded = ExecutionPlan::with_threads(1);
    // Which worker takes which job is the pool's business, so the pooled
    // warm-up runs until every worker's slot has grown once — each checks
    // out the same packing pair, so one allocation per slot — rather than
    // for a fixed number of calls.
    let workers = svc.stats().pool.workers as u64;
    let mut warm = false;
    for round in 0..2000 {
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        if round == 0 {
            svc.run_pinned(&mut req, &degraded).expect("caller-arena warm-up");
            continue;
        }
        svc.run(&mut req).expect("worker-arena warm-up");
        warm = svc.stats().workspace.allocations == workers;
        if warm {
            break;
        }
    }
    assert!(warm, "some worker slot never warmed: {:?}", svc.stats().workspace);
    let pool_before = svc.stats().workspace;
    let local_before = thread_arena_stats();

    fault::set_plan(Some(FaultPlan::panics(1).on_workers_only()));
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    svc.run(&mut req).expect("panicked op must recover");
    assert_eq!(svc.stats().panics_recovered, 1);
    assert_eq!(svc.stats().pool.workers_respawned, 0, "the worker must outlive its panic");
    fault::set_plan(None);

    for round in 0..3 {
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let _ = round;
        svc.run(&mut req).expect("post-recovery run");
    }
    let pool_after = svc.stats().workspace;
    let local_after = thread_arena_stats();
    assert_eq!(
        pool_after.allocations, pool_before.allocations,
        "panic leaked pool arena state: {pool_before:?} -> {pool_after:?}"
    );
    assert_eq!(
        local_after.allocations, local_before.allocations,
        "degraded retry leaked caller arena state: {local_before:?} -> {local_after:?}"
    );
    assert!(pool_after.bytes_reused > pool_before.bytes_reused, "steady state never reused");
}

/// One injected kernel panic must be booked identically whichever front
/// door serves the op: `service.run` or the scheduler, which admits the op
/// and hands it to the same serve stage.
#[test]
fn injected_panic_is_booked_identically_by_service_and_scheduler() {
    let _lock = hold_fault_lock();
    let (m, n, k) = (64usize, 48usize, 32usize);
    let b = fill(k * n, 72);
    let a = fill(m * k, 70);
    let c_ref = serial_reference(m, n, k, &a, &b);
    // (panics_recovered, degraded_retries, plan_downgrades, blocked ops)
    let booked = |s: &ServiceStats| {
        assert_eq!((s.algorithms.strassen, s.algorithms.zorder, s.execution_failures), (0, 0, 0));
        (s.panics_recovered, s.degraded_retries, s.plan_downgrades, s.algorithms.blocked)
    };

    // Not workers-only: the first GEMM kernel entry panics wherever
    // it runs; the degraded retry finds the budget spent and runs clean.
    let per_op = {
        let (_guard, plan) = arm(FaultPlan::panics(1));
        let svc = service(2);
        let mut c = vec![f32::NAN; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (_, stats) = svc.run(&mut req).expect("service.run must recover");
        assert!(stats.plan_degraded);
        assert_bitwise(&c, &c_ref, "service.run recovered result");
        assert_eq!(plan.injected_panics(), 1);
        let per_op = booked(&svc.stats());
        assert_eq!(per_op, (1, 1, 1, 1));
        per_op
    };

    let (_guard, plan) = arm(FaultPlan::panics(1));
    let sched = ServiceScheduler::new(Arc::new(service(2)));
    let mut c = vec![f32::NAN; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let run = sched.submit(&mut req).expect("scheduled submit must recover");
    assert!(!run.fused && run.stats.plan_degraded);
    assert_bitwise(&c, &c_ref, "scheduled recovered result");
    assert_eq!(plan.injected_panics(), 1);
    assert_eq!(booked(&sched.stats().service), per_op, "the scheduler books differently");
}

/// The blocked loop nest exists once, so its fault hook covers what used
/// to be separate copies without one: (a) a SYRK band and (b) the Z-order
/// traversal. Each injected panic is isolated at the service boundary and
/// booked once; the SYRK request (β = 0, so a rerun is sound) is retried
/// degraded to a correct result, the pinned Z-order GEMM is refused — a
/// pin is never swapped for another plan — and runs clean afterwards.
#[test]
fn injected_panic_reaches_syrk_bands_and_the_zorder_traversal() {
    let _lock = hold_fault_lock();
    // (a) SYRK: the strict upper triangle starts as NaN and must stay so.
    // The serial reference runs before the fault is armed.
    {
        let (m, k, ldc) = (200usize, 48usize, 203usize);
        let a = fill(m * k, 81);
        let mut c_ref = vec![f32::NAN; m * ldc];
        syrk_with_stats(m, k, 1.5, &a, k, 0.0, &mut c_ref, ldc, 1);
        let (_guard, plan) = arm(FaultPlan::panics(1));
        let svc = service(2);
        let mut c = vec![f32::NAN; m * ldc];
        let mut req: OpRequest<'_, f32> =
            SyrkArgs { m, k, alpha: 1.5, a: &a, lda: k, beta: 0.0, c: &mut c, ldc }.into();
        let (_, stats) = svc.run(&mut req).expect("a panicked SYRK band must recover");
        assert!(stats.plan_degraded, "{stats:?}");
        assert_eq!(plan.injected_panics(), 1, "the SYRK band never reached the fault hook");
        for i in 0..m {
            let (lower, rest) = (i * ldc..i * ldc + i + 1, i * ldc + i + 1..(i + 1) * ldc);
            assert_bitwise(&c[lower.clone()], &c_ref[lower], "recovered SYRK row");
            assert!(
                c[rest].iter().all(|v| v.is_nan()),
                "row {i}: upper triangle or padding written"
            );
        }
        let booked = svc.stats();
        assert_eq!(
            (booked.panics_recovered, booked.degraded_retries, booked.execution_failures),
            (1, 1, 0),
            "{booked:?}"
        );
    }

    // (b) Z-order: serial on the caller's thread, so not workers-only
    // (and the reference is computed before the fault is armed, under the
    // lock, so it cannot trip a neighbouring test's plan either).
    let (m, n, k) = (96usize, 80usize, 64usize);
    let a = fill(m * k, 82);
    let b = fill(k * n, 83);
    let c_ref = serial_reference(m, n, k, &a, &b);
    let (guard, plan) = arm(FaultPlan::panics(1));
    let svc = service(2);
    let zorder = ExecutionPlan::with_threads(1).with_algorithm(Algorithm::ZOrder);
    let mut c = vec![f32::NAN; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    match svc.run_pinned(&mut req, &zorder) {
        Err(AdsalaError::Execution { detail, .. }) => {
            assert!(detail.contains(&format!("{m}x{n}x{k}")), "not the Z-order call: {detail}");
            assert!(detail.contains("pinned plan, no retry"), "{detail}");
        }
        other => panic!("a pinned plan's panic must surface as Execution, got {other:?}"),
    }
    assert_eq!(plan.injected_panics(), 1, "the Z-order traversal never reached the fault hook");
    let booked = svc.stats();
    assert_eq!(
        (booked.panics_recovered, booked.degraded_retries, booked.execution_failures),
        (1, 0, 1),
        "{booked:?}"
    );

    drop(guard);
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let stats = svc.run_pinned(&mut req, &zorder).expect("fault-free Z-order run");
    assert_eq!(stats.exec.algorithm, Algorithm::ZOrder);
    assert_eq!(c, c_ref, "Z-order is bitwise the serial blocked driver");
    assert_eq!(svc.stats().panics_recovered, 1);
}

/// GEMV's packing-free driver has no tile loop, so its hook sits at the top
/// of its row range, which every GEMV worker passes. An injected panic
/// there is isolated at the service boundary and booked once, and the
/// request (β = 0 over a NaN `y`, so a rerun is sound) is retried degraded
/// to the serial driver's bits.
#[test]
fn injected_panic_reaches_gemv_rows() {
    let _lock = hold_fault_lock();
    let (m, n, alpha) = (300usize, 200usize, 1.25f32);
    let a = fill(m * n, 91);
    let x = fill(n, 92);
    let mut y_ref = vec![0.0f32; m];
    gemv_with_stats(m, n, alpha, &a, n, &x, 0.0, &mut y_ref, 1);
    let (_guard, plan) = arm(FaultPlan::panics(1));
    let svc = service(2);
    let mut y = vec![f32::NAN; m];
    let mut req: OpRequest<'_, f32> =
        GemvArgs { m, n, alpha, a: &a, lda: n, x: &x, beta: 0.0, y: &mut y }.into();
    let (_, stats) = svc.run(&mut req).expect("a panicked GEMV must recover");
    assert!(stats.plan_degraded, "{stats:?}");
    assert_eq!(plan.injected_panics(), 1, "no GEMV worker reached the fault hook");
    assert_bitwise(&y, &y_ref, "recovered GEMV");
    let booked = svc.stats();
    assert_eq!(
        (booked.panics_recovered, booked.degraded_retries, booked.execution_failures),
        (1, 1, 0),
        "{booked:?}"
    );
}

/// The occupier of the gate tests' stall set-up: a 256³ GEMM capped at 4
/// threads, submitted first, whose pool jobs stall behind the installed
/// plan and so hold the 4-worker service's workers.
fn occupier(sched: &ServiceScheduler, seed: u64) -> ScheduledRun {
    let (m, n, k) = (256usize, 256usize, 256usize);
    let a = fill(m * k, seed);
    let b = fill(k * n, seed + 1);
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    sched
        .submit_with(&mut req, RunOptions::with_host_cap(4))
        .expect("stalled occupier must still complete")
}

/// A deadlined `submit_with` at a full gate: an occupier holds the only
/// admission slot (`max_queue: 1`) behind injected worker stalls, so a
/// small op's deadline expires while it waits at the gate. It must come
/// back as a clean `Timeout` with its output untouched and be counted as
/// shed — and the occupier itself must still complete.
#[test]
fn submit_within_times_out_under_a_stalled_wave() {
    let (_lock, _guard, plan) = install(FaultPlan::stalls(4, 300));
    let svc = Arc::new(service(4));
    let sched = ServiceScheduler::with_config(
        Arc::clone(&svc),
        SchedulerConfig { thread_budget: 4, max_queue: 1, ..SchedulerConfig::default() },
    );

    std::thread::scope(|scope| {
        let sched = &sched;
        let occupier = scope.spawn(move || occupier(sched, 31));
        wait_for("the occupier to stall on the workers", || plan.injected_stalls() >= 1);

        let (m, n, k) = (48usize, 48usize, 64usize);
        let a = fill(m * k, 33);
        let b = fill(k * n, 34);
        let mut c = vec![7.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let deadline = Instant::now() + Duration::from_millis(50);
        match sched.submit_with(&mut req, RunOptions::default().with_deadline(deadline)) {
            Err(AdsalaError::Timeout(msg)) => {
                assert!(msg.contains("shed"), "unexpected timeout message: {msg}")
            }
            other => panic!("expected Timeout at the full gate, got {other:?}"),
        }
        assert!(c.iter().all(|&x| x == 7.0), "shed op touched its output");

        let run = occupier.join().expect("occupier thread");
        assert!(run.stats.exec.threads_used >= 2, "occupier's grid did not split into tasks");
    });

    let stats = sched.stats();
    assert_eq!(
        (stats.admission_waits, stats.shed_expired),
        (1, 1),
        "shed op not counted: {stats:?}"
    );
    assert_eq!(stats.completed, 1, "occupier not completed: {stats:?}");
}

/// The gate counts ops, not threads: on the same stall set-up, with the
/// occupier holding every worker, a small op capped at one thread is
/// admitted at once, runs inline on its caller well inside a 50 ms
/// deadline and returns the serial reference's result.
#[test]
fn small_op_is_not_held_behind_an_occupier() {
    let (_lock, _guard, plan) = install(FaultPlan::stalls(4, 300));
    let svc = Arc::new(service(4));
    let sched = ServiceScheduler::with_config(
        Arc::clone(&svc),
        SchedulerConfig { thread_budget: 4, ..SchedulerConfig::default() },
    );

    std::thread::scope(|scope| {
        let sched = &sched;
        let occupier = scope.spawn(move || occupier(sched, 31));
        wait_for("the occupier to stall on the workers", || plan.injected_stalls() >= 1);

        let (m, n, k) = (48usize, 48usize, 64usize);
        let a = fill(m * k, 33);
        let b = fill(k * n, 34);
        let c_ref = serial_reference(m, n, k, &a, &b);
        let mut c = vec![7.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let deadline = Instant::now() + Duration::from_millis(50);
        let opts = RunOptions::with_host_cap(1).with_deadline(deadline);
        let run = sched.submit_with(&mut req, opts).expect("small op held behind the occupier");
        assert_eq!(run.stats.exec.threads_used, 1, "{run:?}");
        assert_bitwise(&c, &c_ref, "small op result");

        let run = occupier.join().expect("occupier thread");
        assert!(run.stats.exec.threads_used >= 2, "occupier's grid did not split into tasks");
    });

    let stats = sched.stats();
    assert_eq!((stats.admission_waits, stats.shed_expired), (0, 0), "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
}

/// The GEMM both share tests run: a shape whose lone decision on the
/// quick bundle is wider than 2 threads, so a share of 2 must move it.
const SHARE_DIMS: (usize, usize, usize) = (256, 256, 256);

fn share_shape() -> OpShape {
    let (m, n, k) = SHARE_DIMS;
    OpShape::gemm(Precision::F32, m as u64, k as u64, n as u64)
}

/// An op that arrives while another is in flight decides within its
/// share of the pool. On the stall set-up, with the occupier holding the
/// 4-worker pool, an uncapped op whose lone decision is wider than 2
/// threads decides at most 2: by the very sweep a cap of 2 runs, so its
/// prediction describes the plan that executes. Its result is the serial
/// reference's.
#[test]
fn op_arriving_under_load_decides_within_its_share() {
    let (_lock, _guard, plan) = install(FaultPlan::stalls(4, 300));
    let svc = Arc::new(service(4));
    let sched = ServiceScheduler::with_config(
        Arc::clone(&svc),
        SchedulerConfig { thread_budget: 4, ..SchedulerConfig::default() },
    );
    let shape = share_shape();
    let lone = svc.bundle().decide_op_capped(shape, u32::MAX);
    assert!(lone.threads() > 2, "the share would not move this op: {lone:?}");
    let shared = svc.bundle().decide_op_capped(shape, 2);

    std::thread::scope(|scope| {
        let sched = &sched;
        let occupier = scope.spawn(move || occupier(sched, 35));
        wait_for("the occupier to stall on the workers", || plan.injected_stalls() >= 1);

        let (m, n, k) = SHARE_DIMS;
        let a = fill(m * k, 36);
        let b = fill(k * n, 37);
        let c_ref = serial_reference(m, n, k, &a, &b);
        let mut c = vec![7.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (decision, _) = svc.run(&mut req).expect("op under load");
        assert!(decision.threads() <= 2, "decided past its share: {decision:?}");
        assert_eq!(decision.plan, shared.plan);
        assert_eq!(decision.predicted_runtime_s.to_bits(), shared.predicted_runtime_s.to_bits());
        assert_bitwise(&c, &c_ref, "op under load");

        occupier.join().expect("occupier thread");
    });
    assert_eq!(svc.stats().share_capped, 1, "{:?}", svc.stats());
}

/// The in-flight slot is handed back on every exit path. After an `Ok`
/// op, a `Shape` error, an expired-deadline refusal, an injected panic
/// with its degraded retry, an `Execution` failure and a pinned op, a
/// lone op still decides exactly as uncapped; one leaked slot would
/// count as an op in flight and halve its share.
#[test]
fn in_flight_slot_is_released_on_every_exit_path() {
    let _lock = hold_fault_lock();
    let _guard = PlanGuard;
    fault::set_plan(None);
    let svc = service(4);
    let shape = share_shape();
    let lone = svc.bundle().decide_op_capped(shape, u32::MAX);
    assert!(lone.threads() > 2, "the share would not move this op: {lone:?}");

    let (m, n, k) = SHARE_DIMS;
    let a = fill(m * k, 81);
    let b = fill(k * n, 82);
    let c_ref = serial_reference(m, n, k, &a, &b);
    let run = |beta: f32, c: &mut [f32], opts: RunOptions| {
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, beta, c, n).into();
        svc.run_with(&mut req, opts)
    };
    let same_as_lone = |d: &PlanDecision| {
        assert_eq!(d.plan, lone.plan);
        assert_eq!(d.predicted_runtime_s.to_bits(), lone.predicted_runtime_s.to_bits());
    };

    // Ok.
    let mut c = vec![0.0f32; m * n];
    let (decision, _) = run(0.0, &mut c, RunOptions::default()).expect("ok op");
    same_as_lone(&decision);
    assert_bitwise(&c, &c_ref, "ok op");

    // Shape error.
    let mut short = vec![0.0f32; m];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut short, n).into();
    assert!(matches!(svc.run(&mut req), Err(AdsalaError::Shape(_))));

    // Expired deadline.
    let expired = RunOptions::default().with_deadline(Instant::now() - Duration::from_millis(1));
    assert!(matches!(run(0.0, &mut c, expired), Err(AdsalaError::Timeout(_))));

    // Injected panic, recovered by the degraded retry (β = 0).
    {
        let (_guard, plan) = arm(FaultPlan::panics(1));
        let mut c = vec![f32::NAN; m * n];
        let (_, stats) = run(0.0, &mut c, RunOptions::default()).expect("degraded retry");
        assert!(stats.plan_degraded);
        assert_eq!(plan.injected_panics(), 1);
        assert_bitwise(&c, &c_ref, "degraded retry");
    }

    // Injected panic that cannot be retried (β ≠ 0): an Execution failure.
    {
        let (_guard, plan) = arm(FaultPlan::panics(1));
        let mut c = vec![0.0f32; m * n];
        assert!(matches!(
            run(1.0, &mut c, RunOptions::default()),
            Err(AdsalaError::Execution { .. })
        ));
        assert_eq!(plan.injected_panics(), 1);
    }

    // A pinned op holds a slot too while it runs.
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    svc.run_pinned(&mut req, &ExecutionPlan::with_threads(4)).expect("pinned op");
    assert_bitwise(&c, &c_ref, "pinned op");

    let mut c = vec![0.0f32; m * n];
    let (decision, _) = run(0.0, &mut c, RunOptions::default()).expect("lone op");
    same_as_lone(&decision);
    let stats = svc.stats();
    assert_eq!(stats.share_capped, 0, "{stats:?}");
    assert_eq!((stats.panics_recovered, stats.execution_failures), (2, 1), "{stats:?}");
}

/// An op whose deadline has already passed is refused before it starts —
/// deterministically, no faults required. The gate is open, so the op is
/// admitted and `run_with` refuses it: counted as the service's deadline
/// miss, not silent, with its output untouched.
#[test]
fn expired_deadline_is_shed_by_the_wave_planner() {
    let svc = Arc::new(service(2));
    let sched = ServiceScheduler::with_config(svc, SchedulerConfig::default());
    let (m, n, k) = (64usize, 64usize, 64usize);
    let a = fill(m * k, 41);
    let b = fill(k * n, 42);
    let mut c = vec![7.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let opts = RunOptions::default().with_deadline(Instant::now() - Duration::from_millis(1));
    match sched.submit_with(&mut req, opts) {
        Err(AdsalaError::Timeout(_)) => {}
        other => panic!("expected Timeout for the expired op, got {other:?}"),
    }
    assert!(c.iter().all(|&x| x == 7.0), "refused op touched its output");
    let stats = sched.stats();
    assert_eq!((stats.service.deadline_misses, stats.shed_expired), (1, 0), "{stats:?}");
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.queue_depth, 0, "refused op still waiting: {stats:?}");
}

/// `SchedulerConfig::admission_timeout` bounds the wait at a full gate:
/// while a stalled occupier holds the only admission slot, each plain
/// `submit` behind it must give up after the configured timeout instead
/// of blocking until the stalls release.
#[test]
fn admission_gate_honors_the_configured_timeout() {
    let (_lock, _guard, plan) = install(FaultPlan::stalls(8, 300));
    let svc = Arc::new(service(4));
    let sched = ServiceScheduler::with_config(
        Arc::clone(&svc),
        SchedulerConfig {
            thread_budget: 4,
            max_queue: 1,
            admission_timeout: Some(Duration::from_millis(50)),
        },
    );

    std::thread::scope(|scope| {
        let sched = &sched;
        let occupier = scope.spawn(move || occupier(sched, 51));
        wait_for("the occupier to stall on the workers", || plan.injected_stalls() >= 1);

        // Two submits in turn, each refused after ~50 ms, long before the
        // 300 ms stalls release the slot.
        for (seed, (m, n, k)) in [(53, (96usize, 96usize, 96usize)), (55, (64, 64, 64))] {
            let a = fill(m * k, seed);
            let b = fill(k * n, seed + 1);
            let mut c = vec![0.0f32; m * n];
            let mut req: OpRequest<'_, f32> =
                GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
            match sched.submit(&mut req) {
                Err(AdsalaError::Timeout(msg)) => {
                    assert!(msg.contains("admission"), "unexpected timeout message: {msg}")
                }
                other => panic!("expected Timeout at the admission gate, got {other:?}"),
            }
        }

        occupier.join().expect("occupier thread");
    });

    let stats = sched.stats();
    assert_eq!(stats.admission_timeouts, 2, "gate timeouts not counted: {stats:?}");
    assert_eq!(stats.shed_expired, 0, "{stats:?}");
    assert_eq!(stats.completed, 1, "occupier lost: {stats:?}");
}

/// Service-level deadline: a call whose deadline has already passed is
/// refused with `Timeout` before any execution, leaving the output
/// untouched and counting a deadline miss.
#[test]
fn service_refuses_a_call_whose_deadline_has_passed() {
    let svc = service(2);
    let (m, n, k) = (64usize, 64usize, 64usize);
    let a = fill(m * k, 61);
    let b = fill(k * n, 62);
    let mut c = vec![7.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let opts = RunOptions::default().with_deadline(Instant::now() - Duration::from_millis(1));
    match svc.run_with(&mut req, opts) {
        Err(AdsalaError::Timeout(_)) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(c.iter().all(|&x| x == 7.0), "refused call touched its output");
    let stats = svc.stats();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.panics_recovered, 0);
}

/// A damaged artefact file must stop the serving stack at load, before a
/// model that predicts NaN can decide a plan; the pristine file still
/// loads and serves.
#[test]
fn corrupted_artifact_is_rejected_at_load() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/artifact_v3.json");
    let pristine = std::fs::read_to_string(&fixture).expect("read fixture");
    let float = r#""base_score":-2.37988641139787e-15"#;
    assert!(pristine.contains(float), "the fixture lost {float}");
    let dir = std::env::temp_dir().join(format!("adsala-corrupt-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("artifact.json");
    std::fs::write(&path, pristine.replacen(float, r#""base_score":1e999"#, 1)).expect("write");
    let loaded = Artifact::load(&path);
    std::fs::remove_dir_all(&dir).ok();
    match loaded {
        Err(AdsalaError::Artifact(msg)) => {
            assert!(msg.contains("non-finite"), "unexpected rejection: {msg}")
        }
        other => panic!("corrupted artifact must be rejected, got {:?}", other.map(|a| a.machine)),
    }

    let _lock = hold_fault_lock();
    let svc = Artifact::load(&fixture).expect("pristine fixture still loads").into_service();
    let (m, n, k) = (64, 64, 64);
    let a = fill(m * k, 91);
    let b = fill(k * n, 92);
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    svc.run(&mut req).expect("the pristine artefact serves");
    // The v3 grid sweeps block scales: the served plan may block
    // differently from the reference.
    assert_close(&c, &serial_reference(m, n, k, &a, &b), "pristine artefact");
}

/// `set_plan` promises that a cleared plan stops stalling. A single long
/// stall holds the one job of a 2-worker pool; clearing the plan once the
/// stall has begun must return the job long before the stall would end.
#[test]
fn clearing_the_plan_releases_a_stall_in_progress() {
    let (_lock, _guard, plan) = install(FaultPlan::stalls(1, 10_000));
    let pool = ThreadPool::new(2);
    std::thread::scope(|scope| {
        let job = scope.spawn(|| {
            let start = Instant::now();
            pool.scope_execute(vec![Box::new(|| {})]);
            start.elapsed()
        });
        wait_for("the job to stall", || plan.injected_stalls() == 1);
        fault::set_plan(None);
        let held = job.join().expect("job thread");
        assert!(held < Duration::from_secs(2), "the stall outlived its plan: {held:?}");
    });
}
