//! Single-layer probes: each times one layer of the library on its own,
//! below the serving stack, so that a change to the end-to-end numbers can
//! be traced to the layer that moved. All of them are workload-independent
//! and single-threaded unless they say otherwise.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::layers::{self, Algo, Installed, MicroProbe, ObserveProbe, ProbeCache, Scalar};
use crate::report::Metrics;
use crate::stats::{median, Summary};
use crate::workloads::Rng;

/// How much work a probe does: everything in a real run, a token amount in
/// a smoke run (which only has to produce every metric).
#[derive(Clone, Copy)]
struct Effort {
    smoke: bool,
}

impl Effort {
    /// An iteration count, cut 32-fold in a smoke run.
    fn count(self, n: u64) -> u64 {
        if self.smoke {
            (n / 32).max(1)
        } else {
            n
        }
    }

    /// Seconds of `samples` calls of `f` (two in a smoke run), one sample
    /// per call.
    fn sample_s(self, samples: usize, mut f: impl FnMut()) -> Vec<f64> {
        (0..if self.smoke { samples.min(2) } else { samples })
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect()
    }

    /// Nanoseconds per call of `f`, from `samples` batches of `batch` calls.
    fn ns_per_call(self, samples: usize, batch: u64, mut f: impl FnMut(u64)) -> Summary {
        let batch = self.count(batch);
        let mut i = 0;
        let per_call: Vec<f64> = self
            .sample_s(samples, || {
                for _ in 0..batch {
                    f(i);
                    i += 1;
                }
            })
            .iter()
            .map(|s| s * 1e9 / batch as f64)
            .collect();
        Summary::of(&per_call)
    }
}

/// `work / seconds / 1e9` per sample: GFLOP/s for FLOPs, GB/s for bytes.
fn giga_rate(work: f64, seconds: &[f64]) -> Summary {
    Summary::of(&seconds.iter().map(|s| work / s / 1e9).collect::<Vec<_>>())
}

fn filled<T: Scalar>(len: usize, rng: &mut Rng) -> Vec<T> {
    (0..len).map(|_| T::from_f64(rng.unit())).collect()
}

// ------------------------------------------------------------- FMA peak

/// Independent accumulator chains: enough to cover the FMA latency on
/// both issue ports.
const CHAINS: usize = 10;

#[cfg(target_arch = "x86_64")]
mod fma {
    use super::CHAINS;
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// `iters` rounds of [`CHAINS`] independent 8-lane FMAs.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f32_loop(iters: u64) -> f32 {
        let (x, y) = (_mm256_set1_ps(black_box(0.999_999)), _mm256_set1_ps(black_box(1e-9)));
        let mut acc = [_mm256_set1_ps(1e-3); CHAINS];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm256_fmadd_ps(*a, x, y);
            }
        }
        let total = acc.into_iter().reduce(|a, b| _mm256_add_ps(a, b)).expect("CHAINS > 0");
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), total);
        lanes.iter().sum()
    }

    /// `iters` rounds of [`CHAINS`] independent 4-lane FMAs.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f64_loop(iters: u64) -> f64 {
        let (x, y) = (_mm256_set1_pd(black_box(0.999_999)), _mm256_set1_pd(black_box(1e-9)));
        let mut acc = [_mm256_set1_pd(1e-3); CHAINS];
        for _ in 0..iters {
            for a in &mut acc {
                *a = _mm256_fmadd_pd(*a, x, y);
            }
        }
        let total = acc.into_iter().reduce(|a, b| _mm256_add_pd(a, b)).expect("CHAINS > 0");
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), total);
        lanes.iter().sum()
    }
}

/// Multiply-adds over `LANES × CHAINS` independent accumulators, left to
/// the compiler to vectorise: the peak where the intrinsics path is absent.
fn portable_loop<T: Scalar, const LANES: usize>(iters: u64) -> f64 {
    let (x, y) = (T::from_f64(black_box(0.999_999)), T::from_f64(black_box(1e-9)));
    let mut acc = [[T::from_f64(1e-3); LANES]; CHAINS];
    for _ in 0..iters {
        for chain in &mut acc {
            for a in chain.iter_mut() {
                *a = a.mul_add_e(x, y);
            }
        }
    }
    acc.iter().flatten().map(|&a| a.into()).sum()
}

/// `iters` rounds of [`CHAINS`] independent 8-lane f32 FMAs, in the
/// instruction set the library's kernels are written for on x86-64
/// (AVX2+FMA), else whatever the compiler makes of a plain loop.
fn fma_f32(iters: u64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: AVX2 and FMA were detected on this CPU just above.
        black_box(unsafe { fma::f32_loop(black_box(iters)) });
        return;
    }
    black_box(portable_loop::<f32, 8>(black_box(iters)));
}

/// The 4-lane f64 counterpart of [`fma_f32`].
fn fma_f64(iters: u64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: AVX2 and FMA were detected on this CPU just above.
        black_box(unsafe { fma::f64_loop(black_box(iters)) });
        return;
    }
    black_box(portable_loop::<f64, 4>(black_box(iters)));
}

/// Register-resident FMA throughput of one core. Returns `(f32, f64)`.
fn fma_peak(e: Effort) -> (Summary, Summary) {
    let iters = e.count(4_000_000);
    let flops = |lanes: usize| (iters as usize * CHAINS * lanes * 2) as f64;
    (
        giga_rate(flops(8), &e.sample_s(7, || fma_f32(iters))),
        giga_rate(flops(4), &e.sample_s(7, || fma_f64(iters))),
    )
}

/// The core clock right now, in GHz, read off the FMA loop: its
/// [`CHAINS`] independent FMAs per round issue two a cycle on every core
/// the library has a SIMD kernel for, so a round is `CHAINS / 2` cycles.
/// (Where that does not hold the result is still a steady unit of this
/// host's speed, which is all the normalised metrics need.) Best of three
/// bursts of about 3 ms, so that an interrupt in one does not count.
pub fn host_clock_ghz() -> f64 {
    const ROUNDS: u64 = 2_000_000;
    let fastest = (0..3)
        .map(|_| {
            let start = Instant::now();
            fma_f32(ROUNDS);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (ROUNDS * CHAINS as u64 / 2) as f64 / fastest / 1e9
}

fn microkernel<T: Scalar>(e: Effort, scalar: bool) -> Summary {
    let calls = e.count(20_000);
    let mut probe = MicroProbe::<T>::new(scalar);
    let seconds = e.sample_s(9, || {
        for _ in 0..calls {
            probe.call();
        }
    });
    giga_rate((probe.flops_per_call() * calls) as f64, &seconds)
}

// ------------------------------------------------------------------ pack

/// Upper bound on the streaming pack source: four times the last-level
/// cache where that is smaller, so the probe stays affordable on hosts
/// whose (shared) LLC is hundreds of megabytes.
const STREAM_SOURCE_CAP_BYTES: usize = 128 << 20;

fn pack(e: Effort, m: &mut Metrics, rng: &mut Rng) {
    // An MC×KC block of A and a KC×NC slice of B, both L2-resident.
    let (rows, cols) = (128, 256);
    let src: Vec<f32> = filled(rows * cols, rng);
    let mut buf = vec![0.0f32; layers::packed_len(rows, cols).max(layers::packed_len(cols, rows))];
    let mut bytes = 0;
    let seconds =
        e.sample_s(200, || bytes = black_box(layers::pack_a_block(&src, rows, cols, &mut buf)));
    m.noted(
        "pack.a_gbps",
        giga_rate(bytes as f64, &seconds),
        "packed bytes written per second; 128x256 f32 source in L2",
    );
    let seconds =
        e.sample_s(200, || bytes = black_box(layers::pack_b_block(&src, cols, rows, &mut buf)));
    m.noted(
        "pack.b_gbps",
        giga_rate(bytes as f64, &seconds),
        "packed bytes written per second; 256x128 f32 source in L2",
    );

    let kc = 256;
    let stream_cols = e.count(stream_source_bytes() as u64) as usize / 4 / kc;
    let src: Vec<f32> = vec![0.5; kc * stream_cols];
    let mut buf = vec![0.0f32; layers::packed_len(kc, stream_cols)];
    let seconds =
        e.sample_s(3, || bytes = black_box(layers::pack_b_block(&src, kc, stream_cols, &mut buf)));
    m.noted(
        "pack.b_gbps_stream",
        giga_rate(bytes as f64, &seconds),
        "source min(4 x LLC, 128 MiB), sizes in the fingerprint (stream_source_bytes, caches)",
    );
}

/// Bytes of the streaming pack probe's source on this host.
pub fn stream_source_bytes() -> usize {
    (4 * layers::detected_caches().map_or(32 << 20, |(_, _, l3)| l3)).min(STREAM_SOURCE_CAP_BYTES)
}

// ----------------------------------------------------------- gemm ladder

/// Samples per rung, by problem size: small problems are cheap and noisy,
/// large ones steady and dear.
fn rung_samples(n: usize) -> usize {
    match n {
        0..=1024 => 5,
        _ => 3,
    }
}

/// Median seconds and last stats of a serial square GEMM at leading
/// dimension `ld`.
fn square<T: Scalar>(
    e: Effort,
    algo: Algo,
    n: usize,
    ld: usize,
    a: &[T],
    b: &[T],
    c: &mut [T],
) -> (Vec<f64>, layers::GemmStats) {
    let mut stats = None;
    let seconds = e.sample_s(rung_samples(n), || {
        stats = Some(layers::gemm_serial(algo, n, n, n, a, ld, b, ld, c, ld));
    });
    (seconds, stats.expect("at least one sample"))
}

fn gemm_ladder(e: Effort, m: &mut Metrics, rng: &mut Rng) {
    // Smoke runs keep every name but shrink every problem 8×.
    let scale = if e.smoke { 8 } else { 1 };
    let big = 2048 / scale;
    let padded = big + 8;
    let a: Vec<f32> = filled(big * padded, rng);
    let b: Vec<f32> = filled(big * padded, rng);
    let mut c = vec![1.0f32; big * padded];
    let flops = |n: usize| 2.0 * (n as f64).powi(3);

    let n = 256 / scale;
    let seconds =
        e.sample_s(3, || layers::gemm_naive(n, &a[..n * n], &b[..n * n], &mut c[..n * n]));
    m.noted(
        "gemm.naive_gflops_n256",
        giga_rate(flops(n), &seconds),
        "triple loop, the ladder's zero rung",
    );

    let mut blocked_s = [0.0; 2];
    for (name, n_full) in [
        ("gemm.blocked_gflops_n768", 768),
        ("gemm.blocked_gflops_n1024", 1024),
        ("gemm.blocked_gflops_n1536", 1536),
        ("gemm.blocked_gflops_n2048", 2048),
    ] {
        let n = n_full / scale;
        let (seconds, stats) = square(e, Algo::Blocked, n, n, &a, &b, &mut c);
        m.host(name, giga_rate(flops(n), &seconds));
        match n_full {
            1024 => {
                blocked_s[0] = median(&seconds);
                let per_flop = (stats.a_packed_bytes + stats.b_packed_bytes) as f64 / flops(n);
                m.noted(
                    "gemm.packed_bytes_per_flop",
                    Summary::single(per_flop),
                    "computed count at n=1024, one thread",
                );
            }
            2048 => blocked_s[1] = median(&seconds),
            _ => {}
        }
    }
    let (seconds, _) = square(e, Algo::Blocked, big, padded, &a, &b, &mut c);
    m.noted(
        "gemm.blocked_gflops_n2048_ld2056",
        giga_rate(flops(big), &seconds),
        "n=2048 with every leading dimension padded by 8",
    );

    for (i, n_full) in [1024, 2048].into_iter().enumerate() {
        let n = n_full / scale;
        for (algo, name) in [
            (
                Algo::Strassen,
                ["strassen.ratio_vs_blocked_n1024", "strassen.ratio_vs_blocked_n2048"][i],
            ),
            (Algo::ZOrder, ["zorder.ratio_vs_blocked_n1024", "zorder.ratio_vs_blocked_n2048"][i]),
        ] {
            let (seconds, _) = square(e, algo, n, n, &a, &b, &mut c);
            let ratios: Vec<f64> = seconds.iter().map(|s| s / blocked_s[i]).collect();
            m.noted(
                name,
                Summary::of(&ratios),
                "time over the blocked driver's median time at the same n; below 1 is faster",
            );
        }
    }

    let (sm, sn, sk) = (3136 / scale, 64, 576 / scale);
    let seconds = e.sample_s(5, || {
        layers::gemm_serial(Algo::Blocked, sm, sn, sk, &a, sk, &b, sn, &mut c, sn);
    });
    m.noted(
        "gemm.skewed_gflops_3136x64x576",
        giga_rate(2.0 * (sm * sn * sk) as f64, &seconds),
        "m x n x k, the ResNet conv2.x 3x3 im2col shape",
    );

    let (sm, sk) = (1024 / scale, 512 / scale);
    let seconds = e.sample_s(5, || {
        layers::syrk_serial(sm, sk, &a[..sm * sk], &mut c[..sm * sm]);
    });
    m.host("syrk.gflops_1024x512", giga_rate((sm * (sm + 1) * sk) as f64, &seconds));

    let n = 2048 / scale;
    let seconds = e.sample_s(9, || {
        layers::gemv_serial(n, n, &a[..n * n], &b[..n], &mut c[..n]);
    });
    m.noted(
        "gemv.gbps_n2048",
        giga_rate((n * n * 4) as f64, &seconds),
        "matrix bytes read per second, f32",
    );

    let n = 1024 / scale;
    let a64: Vec<f64> = filled(n * n, rng);
    let b64: Vec<f64> = filled(n * n, rng);
    let mut c64 = vec![1.0f64; n * n];
    let (seconds, _) = square(e, Algo::Blocked, n, n, &a64, &b64, &mut c64);
    m.host("gemm.blocked_gflops_f64_n1024", giga_rate(flops(n), &seconds));
}

// ------------------------------------------------------------------ pool

fn pool(e: Effort, m: &mut Metrics, rng: &mut Rng) {
    let workers = layers::pool_workers();
    let pool = layers::new_pool(workers);
    m.noted(
        "pool.dispatch_us",
        scaled(e.ns_per_call(9, 500, |_| layers::pool_dispatch(&pool, workers)), 1e-3),
        "scope_execute of one empty task per worker",
    );
    let n = 128;
    let a: Vec<f32> = filled(n * n, rng);
    let b: Vec<f32> = filled(n * n, rng);
    let mut c = vec![0.0f32; n * n];
    let mut time_at = |threads: usize| {
        e.ns_per_call(9, 200, |_| {
            layers::gemm_pooled_square(&pool, n, threads, &a, &b, &mut c);
        })
    };
    let (serial, pooled) = (time_at(1), time_at(workers));
    m.noted(
        "pool.pooled_vs_serial_ratio_n128",
        Summary { median: pooled.median / serial.median, mad: pooled.mad / serial.median, n: pooled.n },
        "time at one thread per worker over time at one thread, 128^3 f32; below 1 means the pool pays",
    );
}

fn scaled(s: Summary, factor: f64) -> Summary {
    Summary { median: s.median * factor, mad: s.mad * factor, n: s.n }
}

// ------------------------------------------------- decision-side layers

fn decision_layers(e: Effort, m: &mut Metrics, installed: &Installed) {
    let bundle = &installed.bundle;
    let points = layers::grid_points(bundle);
    let dims = |i: u64| (24 + i * 37 % 480, 24 + i * 53 % 480, 24 + i * 71 % 480);
    let sweep_ns = e.ns_per_call(9, 64, |i| {
        let (mm, k, n) = dims(i);
        black_box(layers::sweep(bundle, mm, k, n));
    });
    m.sim(
        "select.sweep_us",
        scaled(sweep_ns, 1e-3),
        "host time of one uncached sweep over the sim-trained model: the paper's t_eval",
    );
    m.sim(
        "select.sweep_ns_per_point",
        scaled(sweep_ns, 1.0 / points as f64),
        "sweep time over grid points",
    );
    m.sim("select.grid_points", Summary::single(points as f64), "candidate plans priced per sweep");
    let rows = layers::feature_rows(bundle, 192, 256, 320);
    m.sim(
        "ml.predict_ns_per_row",
        e.ns_per_call(9, 2000, |i| {
            black_box(layers::predict_row(bundle, &rows[i as usize % rows.len()]));
        }),
        "model evaluation alone, feature row prebuilt",
    );
    m.sim(
        "select.sim_speedup_mean",
        Summary::single(layers::sim_speedup_mean(installed, sweep_ns.median * 1e-9)),
        "mean t_all_threads / (t_chosen + t_eval) over the install's held-out shapes; base is simulated gadi at 96 threads",
    );

    let cache = ProbeCache::new();
    let decision = layers::sweep(bundle, 64, 64, 64);
    for i in 0..48 {
        cache.insert(i, decision);
    }
    m.host(
        "cache.hit_ns",
        e.ns_per_call(9, 20_000, |i| {
            black_box(cache.get(i % 48));
        }),
    );
    // Fill to capacity, then keep inserting new keys: every insert evicts.
    let capacity = ProbeCache::CAPACITY as u64;
    for i in 0..2 * capacity {
        cache.insert(i, decision);
    }
    m.noted(
        "cache.miss_insert_ns",
        e.ns_per_call(9, 2_000, |i| {
            let key = 2 * capacity + i;
            black_box(cache.get(key));
            cache.insert(key, decision);
        }),
        "a missing get plus an insert into a full cache",
    );

    let probe = ObserveProbe::new(Arc::clone(bundle));
    m.host("online.observe_ns", e.ns_per_call(9, 20_000, |i| probe.observe(40_000 + i % 1000)));

    m.sim(
        "machine.sim_time_ns",
        e.ns_per_call(9, 2_000, |i| {
            black_box(layers::sim_time_query(bundle, i));
        }),
        "host time of one simulator timing query",
    );
    let count = 2_000;
    let seconds = e.sample_s(5, || {
        black_box(layers::sample_domain(count));
    });
    let per_shape: Vec<f64> = seconds.iter().map(|s| s * 1e9 / count as f64).collect();
    m.host("sampling.halton_ns_per_shape", Summary::of(&per_shape));
}

/// Measure every workload-independent per-layer metric.
pub fn run(m: &mut Metrics, installed: &Installed, smoke: bool) {
    let mut rng = Rng::new(0x006d_6963_726f);
    let e = Effort { smoke };
    let (peak32, peak64) = fma_peak(e);
    let micro32 = microkernel::<f32>(e, false);
    m.noted(
        "isa.fma_peak_gflops_f32",
        peak32,
        "register-resident FMA loop, one core, AVX2+FMA where present",
    );
    m.noted(
        "isa.fma_peak_gflops_f64",
        peak64,
        "register-resident FMA loop, one core, AVX2+FMA where present",
    );
    m.noted(
        "microkernel.gflops_f32",
        micro32,
        "dispatched kernel on L1-resident packed panels, kc=256",
    );
    m.noted(
        "microkernel.gflops_f64",
        microkernel::<f64>(e, false),
        "dispatched kernel on L1-resident packed panels, kc=256",
    );
    m.noted(
        "microkernel.peak_share_f32",
        Summary {
            median: micro32.median / peak32.median,
            mad: micro32.mad / peak32.median,
            n: micro32.n,
        },
        "microkernel.gflops_f32 over isa.fma_peak_gflops_f32",
    );
    m.host("microkernel.scalar_gflops_f32", microkernel::<f32>(e, true));
    pack(e, m, &mut rng);
    gemm_ladder(e, m, &mut rng);
    pool(e, m, &mut rng);
    decision_layers(e, m, installed);
}
