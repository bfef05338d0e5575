//! Criterion benches for the real GEMM substrate on the host: the
//! register-tile micro-kernel of every ISA the host executes, blocked vs
//! naive kernels, packing cost, and thread scaling.

use adsala_gemm::gemm::{gemm_with_stats, GemmCall};
use adsala_gemm::gemv::gemv_with_stats;
use adsala_gemm::naive::naive_gemm;
use adsala_gemm::pack::{pack_a, pack_b, MatView};
use adsala_gemm::syrk::syrk_with_stats;
use adsala_gemm::{Element, Kernel, KernelIsa, Transpose};
use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use std::hint::black_box;

fn fill(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 997) as f32 / 500.0)
        .collect()
}

/// One full-tile fused kernel call (`α = 1`, `β = 0`) on warm packed
/// panels that stay in L1 — the FMA issue rate each ISA's tile reaches,
/// for every ISA this host executes (the element rate is FLOP/s).
fn bench_microkernel_for<T: Element + From<f32>>(group: &mut BenchmarkGroup, precision: &str) {
    let kc = 128usize;
    for kernel in KernelIsa::supported().map(Kernel::<T>::for_isa) {
        let (mr, nr) = (kernel.mr, kernel.nr);
        let a_panel: Vec<T> = fill(kc * mr, 1).into_iter().map(T::from).collect();
        let b_panel: Vec<T> = fill(kc * nr, 2).into_iter().map(T::from).collect();
        let mut tile = vec![T::ZERO; mr * nr];
        group.throughput(Throughput::Elements((2 * mr * nr * kc) as u64));
        group.bench_function(format!("{}/{precision}", kernel.isa), |bench| {
            bench.iter(|| {
                // SAFETY: panels of kc·mr / kc·nr packed elements, a full
                // mr×nr tile at stride nr owned by this thread.
                unsafe {
                    kernel.run(
                        kc,
                        black_box(a_panel.as_ptr()),
                        black_box(b_panel.as_ptr()),
                        tile.as_mut_ptr(),
                        nr,
                        mr,
                        nr,
                        T::ONE,
                        T::ZERO,
                    );
                }
                black_box(&mut tile);
            })
        });
    }
}

fn bench_microkernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm/microkernel");
    bench_microkernel_for::<f32>(&mut group, "f32");
    bench_microkernel_for::<f64>(&mut group, "f64");
    group.finish();
}

fn bench_blocked_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm/blocked_vs_naive");
    for &d in &[64usize, 128, 256] {
        let a = fill(d * d, 1);
        let b = fill(d * d, 2);
        group.throughput(Throughput::Elements((2 * d * d * d) as u64));
        group.bench_with_input(BenchmarkId::new("blocked_1t", d), &d, |bench, &d| {
            let mut out = vec![0.0f32; d * d];
            let call = GemmCall::new(d, d, d, 1);
            bench.iter(|| gemm_with_stats(&call, 1.0, &a, d, &b, d, 0.0, black_box(&mut out), d));
        });
        group.bench_with_input(BenchmarkId::new("naive", d), &d, |bench, &d| {
            let mut out = vec![0.0f32; d * d];
            bench.iter(|| {
                naive_gemm(
                    Transpose::No,
                    Transpose::No,
                    d,
                    d,
                    d,
                    1.0f32,
                    &a,
                    d,
                    &b,
                    d,
                    0.0,
                    black_box(&mut out),
                    d,
                )
            });
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm/thread_scaling_512");
    let d = 512usize;
    let a = fill(d * d, 3);
    let b = fill(d * d, 4);
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for &t in &[1usize, 2, 4, 8] {
        if t > max {
            continue;
        }
        group.throughput(Throughput::Elements((2 * d * d * d) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |bench, &t| {
            let mut out = vec![0.0f32; d * d];
            let call = GemmCall::new(d, d, d, t);
            bench.iter(|| gemm_with_stats(&call, 1.0, &a, d, &b, d, 0.0, black_box(&mut out), d));
        });
    }
    group.finish();
}

/// The four operand × orientation cases of one element type, at the
/// dispatched kernel's register tile and perfbench's block geometry
/// (`pack.a_gbps`/`pack.b_gbps`: a 128×256 `A` block, a 256×128 `B`
/// block, rate in packed bytes written).
fn bench_packing_for<T: Element + From<f32>>(group: &mut BenchmarkGroup, precision: &str) {
    let kernel = Kernel::<T>::dispatched();
    let (mc, kc, nc) = (128usize, 256usize, 128usize);
    let data: Vec<T> = fill(mc * kc, 5).into_iter().map(T::from).collect();

    let mut buf = vec![T::ZERO; mc.div_ceil(kernel.mr) * kernel.mr * kc];
    group.throughput(Throughput::Bytes((buf.len() * T::BYTES) as u64));
    for (case, view) in [
        ("a_rowmajor", MatView::row_major(&data, mc, kc, kc)),
        ("a_transposed", MatView::row_major(&data, kc, mc, mc).t()),
    ] {
        group.bench_function(format!("{case}/{precision}"), |bench| {
            bench.iter(|| pack_a(black_box(&view), kernel.mr, black_box(&mut buf)))
        });
    }

    let mut buf = vec![T::ZERO; kc * nc.div_ceil(kernel.nr) * kernel.nr];
    group.throughput(Throughput::Bytes((buf.len() * T::BYTES) as u64));
    for (case, view) in [
        ("b_rowmajor", MatView::row_major(&data, kc, nc, nc)),
        ("b_transposed", MatView::row_major(&data, nc, kc, kc).t()),
    ] {
        group.bench_function(format!("{case}/{precision}"), |bench| {
            bench.iter(|| pack_b(black_box(&view), kernel.nr, black_box(&mut buf)))
        });
    }
}

fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm/packing");
    bench_packing_for::<f32>(&mut group, "f32");
    bench_packing_for::<f64>(&mut group, "f64");
    group.finish();
}

fn bench_extension_routines(c: &mut Criterion) {
    let mut group = c.benchmark_group("blas_ext");
    let m = 256usize;
    let k = 128usize;
    let a = fill(m * k, 8);
    group.throughput(Throughput::Elements((m * m * k) as u64));
    group.bench_function("syrk_256x128_2t", |bench| {
        let mut out = vec![0.0f32; m * m];
        bench.iter(|| syrk_with_stats(m, k, 1.0, &a, k, 0.0, black_box(&mut out), m, 2));
    });
    let (gm, gn) = (1024usize, 1024usize);
    let ga = fill(gm * gn, 9);
    let x = fill(gn, 10);
    group.throughput(Throughput::Bytes((gm * gn * 4) as u64));
    group.bench_function("gemv_1024_2t", |bench| {
        let mut y = vec![0.0f32; gm];
        bench.iter(|| gemv_with_stats(gm, gn, 1.0, &ga, gn, &x, 0.0, black_box(&mut y), 2));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_microkernel,
    bench_blocked_vs_naive,
    bench_thread_scaling,
    bench_packing,
    bench_extension_routines
);
criterion_main!(benches);
