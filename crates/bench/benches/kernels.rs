//! End-to-end throughput for the kernel-dispatch layer.
//!
//! * `kernels/gemm_table5` — end-to-end pooled GEMM under dispatch vs
//!   forced scalar across shapes drawn from the paper's Table V sampling
//!   domain (the 0–500 MB f32 region the speedup tables integrate over).
//!
//! The raw register-tile rates, per ISA, are `gemm/microkernel/*` in the
//! `gemm_kernels` bench. Each benchmark reports `Throughput::Elements`
//! equal to the FLOPs of the measured body, so criterion's element rate
//! is FLOP/s.

use adsala_gemm::gemm::{gemm_with_stats_pooled, GemmCall};
use adsala_gemm::isa::KernelIsa;
use adsala_gemm::pool::ThreadPool;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn fill(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 997) as f32 / 500.0 - 1.0
        })
        .collect()
}

/// End-to-end pooled f32 GEMM across Table V-domain shapes, dispatched
/// vs forced scalar.
fn bench_gemm_table5(c: &mut Criterion) {
    let threads = 4.min(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
    let pool = ThreadPool::new(threads);
    let mut group = c.benchmark_group("kernels/gemm_table5");
    group.sample_size(10);
    // Shapes from the paper's Table V sampling domain (m·k·n spread over
    // the 0–500 MB f32 region): square mid-size, tall-skinny k-deep,
    // wide-n, and the small region the ML router serves most.
    for &(m, k, n) in
        &[(500usize, 500usize, 500usize), (1024, 256, 128), (96, 2048, 96), (160, 64, 1408)]
    {
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let flops = (2 * m * k * n) as u64;
        group.throughput(Throughput::Elements(flops));
        for (label, isa) in [("dispatched", None), ("scalar", Some(KernelIsa::Scalar))] {
            let mut call = GemmCall::new(m, n, k, threads);
            if let Some(isa) = isa {
                call = call.with_isa(isa);
            }
            group.bench_with_input(
                BenchmarkId::new(label, format!("{m}x{k}x{n}")),
                &call,
                |bench, call| {
                    let mut out = vec![0.0f32; m * n];
                    bench.iter(|| {
                        gemm_with_stats_pooled(
                            &pool,
                            call,
                            1.0,
                            &a,
                            k,
                            &b,
                            n,
                            0.0,
                            black_box(&mut out),
                            n,
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_table5);
criterion_main!(benches);
