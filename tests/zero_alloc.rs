//! Steady-state allocation behaviour of the serving hot path.
//!
//! The PR-4 tentpole claims `AdsalaService::run` performs **zero
//! packing-path heap allocations** once the arenas are warm. These tests
//! prove it with the workspace's own allocation counters (every arena
//! growth — the only packing-path allocation — bumps `allocations`):
//! after a warm-up call per shape, the counter must stop moving while
//! traffic keeps flowing, and the per-call `arena_bytes_reused` stat must
//! show the packing scratch being served warm.

use adsala::bundle::quick_test_bundle;
use adsala::prelude::*;
use adsala_gemm::blocking::reads_in_place;
use adsala_gemm::gemm::{gemm_with_stats, GemmCall};
use adsala_gemm::workspace::thread_arena_stats;
use adsala_gemm::{syrk_with_stats, BlockSizes, GemmStats, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

fn service() -> AdsalaService {
    AdsalaService::with_config(quick_test_bundle().into_shared(), ServiceConfig { pool_workers: 4 })
}

fn run_gemm(svc: &AdsalaService, m: usize, n: usize, k: usize) -> OpStats {
    let a = vec![1.0f32; m * k];
    let b = vec![0.5f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let mut req: OpRequest<'_, f32> =
        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    let (_, stats) = svc.run(&mut req).expect("valid request");
    stats
}

#[test]
fn steady_state_service_traffic_allocates_nothing_on_the_packing_path() {
    let svc = service();
    let shapes = [(192usize, 192usize, 96usize), (256, 64, 128), (64, 64, 64)];

    // Warm-up: the first call per shape may grow this client thread's
    // local arena, and a pooled grid may grow the slot arena of each
    // worker that takes one of its tasks. Which worker takes which task
    // is the pool's business, so the warm-up runs whole rounds until
    // every slot has grown once (every pooled task here checks out the
    // same packing pair) rather than for a fixed number of calls.
    let workers = svc.stats().pool.workers as u64;
    let warm = (0..2000).any(|_| {
        for &(m, n, k) in &shapes {
            run_gemm(&svc, m, n, k);
        }
        svc.stats().workspace.allocations == workers
    });
    assert!(warm, "some worker slot never warmed: {:?}", svc.stats().workspace);

    // The packing path draws from two places: the pool workspace
    // (parallel grids) and the client thread's local arena (serial
    // decisions). Neither may allocate once warm.
    let ws_before = svc.stats().workspace;
    let tl_before = thread_arena_stats();
    for round in 0..10 {
        for &(m, n, k) in &shapes {
            let stats = run_gemm(&svc, m, n, k);
            assert!(
                stats.exec.arena_bytes_reused > 0,
                "round {round}: {m}x{n}x{k} did not reuse warm arena bytes: {stats:?}"
            );
        }
    }
    let ws_after = svc.stats().workspace;
    let tl_after = thread_arena_stats();
    assert_eq!(
        ws_after.allocations, ws_before.allocations,
        "pool workspace allocated during steady state: {ws_before:?} -> {ws_after:?}"
    );
    assert_eq!(
        tl_after.allocations, tl_before.allocations,
        "client thread arena allocated during steady state: {tl_before:?} -> {tl_after:?}"
    );
    assert!(
        ws_after.bytes_reused + tl_after.bytes_reused
            > ws_before.bytes_reused + tl_before.bytes_reused,
        "steady-state traffic must be served from warm arenas"
    );
}

#[test]
fn mixed_routine_steady_state_stays_warm() {
    // SYRK packs through the same arenas; GEMV packs nothing. Neither
    // may disturb the zero-allocation steady state.
    let svc = service();
    let (m, k) = (128usize, 64usize);
    let a = vec![1.0f64; m * k];
    let x = vec![1.0f64; k];

    let run_all = || {
        let mut c = vec![0.0f64; m * m];
        let mut req: OpRequest<'_, f64> =
            SyrkArgs { m, k, alpha: 1.0, a: &a, lda: k, beta: 0.0, c: &mut c, ldc: m }.into();
        svc.run(&mut req).expect("syrk");
        let mut y = vec![0.0f64; m];
        let mut req: OpRequest<'_, f64> =
            GemvArgs { m, n: k, alpha: 1.0, a: &a, lda: k, x: &x, beta: 0.0, y: &mut y }.into();
        svc.run(&mut req).expect("gemv");
    };
    run_all();
    run_all();
    let ws_before = svc.stats().workspace;
    let tl_before = thread_arena_stats();
    for _ in 0..8 {
        run_all();
    }
    assert_eq!(svc.stats().workspace.allocations, ws_before.allocations);
    assert_eq!(thread_arena_stats().allocations, tl_before.allocations);
}

/// The entry points that take no pool run on the process pool, whose
/// workers keep their arenas: once every worker's arena is warm, each call
/// whose grid splits is served its whole packing workspace warm and the
/// pool allocates nothing. The pool's counter is process-wide, so nothing
/// else in this binary may use the process pool.
#[test]
fn unpooled_calls_reuse_the_process_pool() {
    // A depth at which either 96-wide half of the grid packs what it reads.
    let m = 192usize;
    let k = (64..).step_by(16).find(|&k| !reads_in_place::<f64>(m / 2, m, k)).expect("deep k");
    let a: Vec<f64> = (0..m * k).map(|i| (i % 7) as f64).collect();
    let call = GemmCall::new(m, m, k, 2);
    let gemm = || {
        let mut c = vec![0.0f64; m * m];
        gemm_with_stats(&call, 1.0, &a, k, &a, m, 0.0, &mut c, m)
    };
    let syrk = || {
        let mut c = vec![0.0f64; m * m];
        syrk_with_stats(m, k, 1.0, &a, k, 0.0, &mut c, m, 2)
    };

    // Warm every worker with the packing pair both calls check out (the
    // default blocks on `m×m×k`): one task per worker, held on a barrier
    // until all have started so no worker takes two. Nothing else uses
    // the process pool, so every worker is free to start one. A second
    // checkout reports the pair's size.
    let pool = ThreadPool::global();
    let blocks = BlockSizes::dispatched::<f64>().clamped(m, m, k);
    let workers = pool.workers();
    let (barrier, pair) = (Barrier::new(workers), AtomicU64::new(0));
    let (ws, barrier, pair) = (pool.workspace(), &barrier, &pair);
    let tasks = (0..workers)
        .map(|_| {
            Box::new(move || {
                barrier.wait();
                ws.with_arena(|arena| {
                    arena.checkout_pair::<f64>(&blocks);
                    pair.store(arena.checkout_pair::<f64>(&blocks).2, Ordering::Relaxed);
                });
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scope_execute(tasks);

    let pair = pair.load(Ordering::Relaxed);
    let before = pool.workspace().arena_stats();
    for (what, run) in [("gemm", &gemm as &dyn Fn() -> GemmStats), ("syrk", &syrk)] {
        for _ in 0..10 {
            let s = run();
            let tasks = (s.grid_rows * s.grid_cols) as u64;
            assert!(tasks > 1, "{what}: the grid must split: {s:?}");
            assert_eq!(s.arena_bytes_reused, tasks * pair, "{what}: a checkout allocated");
        }
    }
    let after = pool.workspace().arena_stats();
    assert_eq!(after.allocations, before.allocations, "{before:?} -> {after:?}");
}

#[test]
fn degenerate_shapes_report_wall_time_through_the_service() {
    // Satellite regression: m/n == 0 used to return a default-zero stats
    // struct; the service must now see a measured wall_ns.
    let svc = service();
    let stats = run_gemm(&svc, 0, 16, 16);
    assert!(stats.exec.wall_ns > 0, "degenerate call lost its wall time: {stats:?}");
    assert_eq!(stats.exec.threads_used, 0);
}
