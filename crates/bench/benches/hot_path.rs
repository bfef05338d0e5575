//! Hot-path latency benches for the zero-allocation GEMM substrate: the
//! costs the paper's Table VII attributes to thread synchronisation and
//! data copies, measured knob by knob on the small shapes (≤ 256) the ML
//! router sends to few threads.
//!
//! * `hot_path/alloc_vs_arena` — serial small-shape GEMM with a warm
//!   thread-local arena vs the old allocate-per-call behaviour
//!   (simulated by dropping the arena before every call).
//! * `hot_path/b_packing` — pooled row-split GEMM with cooperative
//!   shared-B packing vs per-row-group duplicated packing (the PR-3
//!   semantics), including the allocate-per-call worst case.
//! * `hot_path/writeback` — the specialised micro-kernel merges: β = 0
//!   (no C read) and α = 1 write-backs vs the general `α·acc + β·C`.

use adsala_gemm::gemm::{gemm_with_stats, gemm_with_stats_pooled, GemmCall};
use adsala_gemm::plan::PackingStrategy;
use adsala_gemm::pool::ThreadPool;
use adsala_gemm::workspace::reset_thread_arena;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn fill(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 997) as f32 / 500.0)
        .collect()
}

fn bench_alloc_vs_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path/alloc_vs_arena");
    for &d in &[64usize, 128, 256] {
        let a = fill(d * d, 1);
        let b = fill(d * d, 2);
        let call = GemmCall::new(d, d, d, 1);
        group.throughput(Throughput::Elements((2 * d * d * d) as u64));
        group.bench_with_input(BenchmarkId::new("arena_warm", d), &d, |bench, _| {
            let mut out = vec![0.0f32; d * d];
            bench.iter(|| gemm_with_stats(&call, 1.0, &a, d, &b, d, 0.0, black_box(&mut out), d));
        });
        group.bench_with_input(BenchmarkId::new("alloc_per_call", d), &d, |bench, _| {
            let mut out = vec![0.0f32; d * d];
            bench.iter(|| {
                // Dropping the arena before each call restores the old
                // allocate-per-call packing behaviour.
                reset_thread_arena();
                gemm_with_stats(&call, 1.0, &a, d, &b, d, 0.0, black_box(&mut out), d)
            });
        });
    }
    group.finish();
}

fn bench_b_packing(c: &mut Criterion) {
    // Tall-and-narrow forces a row-split grid: the shape where independent
    // packing makes grid_rows duplicated copies of B.
    let (m, n, k) = (256usize, 64usize, 256usize);
    let threads = 4.min(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
    let a = fill(m * k, 3);
    let b = fill(k * n, 4);
    let call = GemmCall::new(m, n, k, threads);
    let dup_call = call.with_plan(call.plan.with_packing(PackingStrategy::Independent));
    let mut group = c.benchmark_group("hot_path/b_packing");
    group.sample_size(100);
    group.throughput(Throughput::Elements((2 * m * n * k) as u64));
    group.bench_function("shared_b", |bench| {
        let pool = ThreadPool::new(threads);
        let mut out = vec![0.0f32; m * n];
        bench.iter(|| {
            gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.0, black_box(&mut out), n)
        });
    });
    group.bench_function("duplicated_b", |bench| {
        let pool = ThreadPool::new(threads);
        let mut out = vec![0.0f32; m * n];
        bench.iter(|| {
            gemm_with_stats_pooled(&pool, &dup_call, 1.0, &a, k, &b, n, 0.0, black_box(&mut out), n)
        });
    });
    group.bench_function("duplicated_b_alloc_per_call", |bench| {
        // The full pre-arena baseline: duplicated packing AND cold
        // buffers on every call. Both the pool slots and the caller's
        // thread-local arena are dropped, so the serial fallback on
        // low-core hosts pays the allocation too.
        let pool = ThreadPool::new(threads);
        let mut out = vec![0.0f32; m * n];
        bench.iter(|| {
            pool.workspace().reset();
            reset_thread_arena();
            gemm_with_stats_pooled(&pool, &dup_call, 1.0, &a, k, &b, n, 0.0, black_box(&mut out), n)
        });
    });
    group.finish();
}

fn bench_writeback(c: &mut Criterion) {
    // Small serial GEMM so the merge paths are a visible slice of the
    // runtime; identical FLOPs, different write-back specialisation.
    let d = 128usize;
    let a = fill(d * d, 5);
    let b = fill(d * d, 6);
    let call = GemmCall::new(d, d, d, 1);
    let mut group = c.benchmark_group("hot_path/writeback");
    group.throughput(Throughput::Elements((2 * d * d * d) as u64));
    group.bench_function("beta0_no_c_read", |bench| {
        let mut out = vec![0.0f32; d * d];
        bench.iter(|| gemm_with_stats(&call, 1.0, &a, d, &b, d, 0.0, black_box(&mut out), d));
    });
    group.bench_function("alpha1_beta1_accumulate", |bench| {
        let mut out = vec![0.0f32; d * d];
        bench.iter(|| gemm_with_stats(&call, 1.0, &a, d, &b, d, 1.0, black_box(&mut out), d));
    });
    group.bench_function("general_merge", |bench| {
        let mut out = vec![0.0f32; d * d];
        bench.iter(|| gemm_with_stats(&call, 1.7, &a, d, &b, d, 0.3, black_box(&mut out), d));
    });
    group.finish();
}

criterion_group!(hot_path, bench_alloc_vs_arena, bench_b_packing, bench_writeback);
criterion_main!(hot_path);
