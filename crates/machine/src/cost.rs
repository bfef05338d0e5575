//! The analytic GEMM cost model: spawn + sync + copy + kernel.
//!
//! Every term is derived from the topology ([`crate::topology`]), the
//! vendor profile ([`crate::vendor`]) and the thread placement, so the
//! same model instance answers "how long would this GEMM take at *any*
//! thread count" — which is exactly the question the paper's training data
//! gathering asks the real machines.
//!
//! A blocked plan is priced as the vendor library of the paper's nodes
//! runs it: row groups share cooperatively packed `B` panels and meet at a
//! barrier per rank-update panel, on the vendor's vector kernel. The plan
//! grid has no `B`-packing axis (no host plan could execute one) and no
//! ISA axis (the scalar kernel was the timed optimum of no swept shape),
//! so this is the only blocked price.

use adsala_gemm::plan::{Algorithm, PlanPoint};
use adsala_sampling::GemmShape;
use serde::{Deserialize, Serialize};

use crate::noise::{combine, lognormal_factor, spike_factor};
use crate::topology::{Affinity, NodeTopology, Placement};
use crate::vendor::Vendor;

/// Wall-time decomposition of one simulated GEMM call (seconds) — the
/// three components of the paper's Table VII plus thread-team spawn.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Thread-team wake-up.
    pub spawn_s: f64,
    /// Barrier synchronisation.
    pub sync_s: f64,
    /// Operand packing (data copy).
    pub copy_s: f64,
    /// Micro-kernel execution.
    pub kernel_s: f64,
}

impl CostBreakdown {
    /// Total wall time (seconds).
    pub fn total(&self) -> f64 {
        self.spawn_s + self.sync_s + self.copy_s + self.kernel_s
    }

    /// Sync as reported by a profiler (spawn + barriers).
    pub fn profiler_sync(&self) -> f64 {
        self.spawn_s + self.sync_s
    }
}

/// A simulated machine: topology + vendor profile + measurement noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    pub topology: NodeTopology,
    pub vendor: Vendor,
    pub affinity: Affinity,
    /// Operand element size in bytes (4 = SGEMM, 8 = DGEMM).
    pub element_bytes: u64,
    /// Log-normal measurement noise σ (0 disables noise).
    pub noise_sigma: f64,
    /// Probability of a heavy-tail timing spike per measurement (OS
    /// jitter, NUMA imbalance) — see [`crate::noise::spike_factor`].
    pub spike_prob: f64,
    /// Mean extra slowdown of a spike (`1 + Exp(scale)`).
    pub spike_scale: f64,
    /// Experiment seed: all measurement noise derives from it.
    pub seed: u64,
}

impl MachineModel {
    /// The Setonix node model with AMD BLIS (the paper's §V-B pairing).
    pub fn setonix() -> Self {
        Self {
            topology: crate::presets::setonix(),
            vendor: Vendor::BlisLike,
            affinity: Affinity::CoreBased,
            element_bytes: 4,
            noise_sigma: 0.12,
            spike_prob: 0.03,
            spike_scale: 1.0,
            seed: 0xAD5A_1A00,
        }
    }

    /// The Gadi node model with Intel MKL.
    pub fn gadi() -> Self {
        Self {
            topology: crate::presets::gadi(),
            vendor: Vendor::MklLike,
            affinity: Affinity::CoreBased,
            element_bytes: 4,
            noise_sigma: 0.12,
            spike_prob: 0.03,
            spike_scale: 1.0,
            seed: 0xAD5A_1A01,
        }
    }

    /// This machine with hyper-threading disabled (Table VI runs).
    pub fn without_smt(&self) -> Self {
        Self { topology: self.topology.without_smt(), ..self.clone() }
    }

    /// This machine with a different affinity policy (Fig. 7 runs).
    pub fn with_affinity(&self, affinity: Affinity) -> Self {
        Self { affinity, ..self.clone() }
    }

    /// Maximum usable threads (the paper's baseline thread count).
    pub fn max_threads(&self) -> u32 {
        self.topology.total_threads()
    }

    /// Noise-free expected cost of one GEMM at `threads` under the
    /// default execution plan.
    pub fn expected(&self, shape: GemmShape, threads: u32) -> CostBreakdown {
        self.expected_point(shape, &PlanPoint::threads_only(threads))
    }

    /// Noise-free expected cost of one GEMM at a full plan-grid point.
    ///
    /// A default-axes point evaluates the exact arithmetic of the
    /// threads-only model (bit-identical results). Non-default axes
    /// adjust the terms they physically touch:
    ///
    /// * **block scale** — the `kc` axis rescales `KC`, which moves the
    ///   per-panel barrier count, `C` write-back traffic and kernel-call
    ///   overhead; any axis off 100% additionally pays a small
    ///   kernel-efficiency penalty for leaving the tuned cache footprint;
    /// * **Strassen** — with `L` eligible recursion levels, the cost is
    ///   `7^L` blocked base calls at the `2^L`-times-halved shape (this
    ///   is literally what the driver executes) plus operand
    ///   combine/scatter streaming per level; the `(7/8)^L` FLOP saving
    ///   and the small-base-case inefficiency at high thread counts both
    ///   fall out of pricing the base shape directly. An ineligible shape
    ///   prices as blocked, exactly as the dispatcher degrades it;
    /// * **Z-order** — serial by construction: priced as the one-thread
    ///   blocked plan with a small `B`-repack saving from Morton-adjacent
    ///   macro-block reuse.
    pub fn expected_point(&self, shape: GemmShape, point: &PlanPoint) -> CostBreakdown {
        match point.algorithm {
            Algorithm::Blocked => {}
            Algorithm::Strassen { cutoff } => {
                let (m, k, n) = (shape.m.max(1), shape.k.max(1), shape.n.max(1));
                let levels =
                    adsala_gemm::strassen::levels(m as usize, n as usize, k as usize, cutoff);
                if levels == 0 {
                    // The dispatcher refuses and runs blocked.
                    return self.expected_point(
                        shape,
                        &PlanPoint { algorithm: Algorithm::Blocked, ..*point },
                    );
                }
                // The driver runs 7^L blocked base calls at the halved
                // shape; price exactly that. The thread team spawns once.
                let div = 1u64 << levels;
                let base_shape = GemmShape::new(m / div, k / div, n / div);
                let base = self.expected_point(
                    base_shape,
                    &PlanPoint { algorithm: Algorithm::Blocked, ..*point },
                );
                let calls = 7f64.powi(levels as i32);
                let lf = f64::from(levels);
                let es = self.element_bytes as f64;
                // Quadrant sums and ±α scatters stream operand-sized
                // buffers through memory once per level.
                let combine_bytes =
                    es * lf * 2.0 * ((m * k) as f64 + (k * n) as f64 + 2.0 * (m * n) as f64);
                let place = Placement::place(&self.topology, point.threads.max(1), self.affinity);
                let bw = self.topology.socket_bw() * place.sockets_used as f64;
                return CostBreakdown {
                    spawn_s: base.spawn_s,
                    sync_s: base.sync_s * calls,
                    copy_s: base.copy_s * calls + combine_bytes / bw,
                    kernel_s: base.kernel_s * calls,
                };
            }
            Algorithm::ZOrder => {
                let serial = self.expected_point(
                    shape,
                    &PlanPoint { threads: 1, algorithm: Algorithm::Blocked, ..*point },
                );
                return CostBreakdown { copy_s: serial.copy_s * 0.9, ..serial };
            }
        }
        let topo = &self.topology;
        let params = self.vendor.params();
        let p = point.threads.clamp(1, topo.total_threads());
        let place = Placement::place(topo, p, self.affinity);
        let es = self.element_bytes as f64;
        let (m, k, n) = (shape.m.max(1), shape.k.max(1), shape.n.max(1));

        let (pr, pc) = self.vendor.grid(p as u64, m, n);
        let tile_m = m.div_ceil(pr).max(1);
        let tile_n = n.div_ceil(pc).max(1);
        // Zero-padding of ragged micro-tiles: packed bytes per logical byte.
        let pad_m = (tile_m.div_ceil(params.mr) * params.mr) as f64 / tile_m as f64;
        let pad_n = (tile_n.div_ceil(params.nr) * params.nr) as f64 / tile_n as f64;
        let kc = if point.blocking.kc_percent == 100 {
            params.kc
        } else {
            (params.kc * point.blocking.kc_percent.max(1) as u64 / 100).max(1)
        };
        let kblocks = k.div_ceil(kc).max(1) as f64;

        // ---- spawn + sync -------------------------------------------------
        let (spawn_s, sync_s) = if p <= 1 {
            (0.0, 0.0)
        } else {
            let spawn = params.spawn_per_thread_s * p as f64;
            let barrier = params.sync_per_barrier_s
                * (p as f64).log2()
                * (1.0 + params.sync_numa_penalty * (place.sockets_used - 1) as f64);
            // Cooperative B packing synchronises every rank-update panel.
            (spawn, (kblocks + 2.0) * barrier)
        };

        // ---- data copy (packing) -----------------------------------------
        // Each row group packs its own copy of the B panel and each column
        // group its own copy of the A panel (duplication across the grid),
        // padded to full micro-tiles.
        let a_bytes = es * (m * k) as f64 * pad_m * pc as f64;
        let b_bytes = es * (k * n) as f64 * pad_n * pr as f64;
        let copy_bytes = a_bytes + b_bytes;

        // Aggregate copy bandwidth: sockets in play, NUMA-interleave
        // inefficiency, and a per-thread streaming ceiling.
        let interleave_eff = 1.0 / (1.0 + 0.15 * (place.sockets_used - 1) as f64);
        let bw =
            (topo.socket_bw() * place.sockets_used as f64 * interleave_eff).min(p as f64 * 12e9);
        let copy_bw_s = copy_bytes / bw;

        // Contention floor: allocator locks / page faults / coherence
        // traffic serialising the copy phase. It scales with thread-grid
        // oversubscription — when there are more threads than `MR×NR`
        // output micro-tiles, the surplus threads only generate buffer and
        // coherence churn (the paper's Table VII pathology). Beyond ~4
        // threads per tile the stragglers park instead of thrashing, so
        // both the contending thread count and the oversubscription factor
        // saturate (vendor runtimes short-circuit degenerate outputs).
        let tiles = (m.div_ceil(params.mr) * n.div_ceil(params.nr)) as f64;
        let p_contending = (p as f64).min(4.0 * tiles);
        let oversub = p_contending / tiles;
        let contention_per_block = params.copy_lock_s
            * p_contending
            * (1.0 + params.oversub_penalty * oversub * place.sockets_used as f64);
        let copy_s = copy_bw_s + kblocks * contention_per_block;

        // ---- kernel -------------------------------------------------------
        let freq = topo.freq_at(place.cores_used);
        let smt_factor =
            1.0 + (params.smt_gain - 1.0) * (place.smt_occupancy - 1.0).clamp(0.0, 1.0);
        let capacity = place.cores_used as f64 * topo.core_peak_flops(freq) * smt_factor;
        // Fringe efficiency: ragged edges waste vector lanes; short k
        // never amortises the pipeline ramp.
        let eff_m = tile_m as f64 / (tile_m.div_ceil(params.mr) * params.mr) as f64;
        let eff_n = tile_n as f64 / (tile_n.div_ceil(params.nr) * params.nr) as f64;
        let eff_k = k as f64 / (k as f64 + 16.0);
        let mut eff = params.kernel_eff * eff_m * eff_n * eff_k;
        // Leaving the vendor-tuned cache footprint costs kernel
        // efficiency: oversized panels spill L2, undersized ones re-load
        // A micro-panels more often. Any axis off its default pays.
        let b = &point.blocking;
        if b.mc_percent > 100 || b.kc_percent > 100 || b.nc_percent > 100 {
            eff *= 0.90;
        } else if b.mc_percent < 100 || b.kc_percent < 100 || b.nc_percent < 100 {
            eff *= 0.96;
        }
        let flops = shape.flops() as f64;
        let flop_time = flops / (capacity * eff.max(1e-3));
        // Memory roofline: C is streamed (read+write) once per rank-update
        // block. SMT siblings hide memory latency, extracting more of the
        // socket bandwidth (this is why a small cluster of memory-bound
        // shapes *does* prefer the full hardware-thread count, Fig. 9a).
        let smt_mem =
            1.0 + (params.smt_mem_gain - 1.0) * (place.smt_occupancy - 1.0).clamp(0.0, 1.0);
        let c_traffic = 2.0 * es * (m * n) as f64 * kblocks;
        let mem_time = c_traffic / (bw * smt_mem);
        // Micro-kernel call overhead, parallel across threads.
        let calls_per_thread =
            tile_m.div_ceil(params.mr) as f64 * tile_n.div_ceil(params.nr) as f64 * kblocks;
        let call_overhead = calls_per_thread * params.kernel_call_s;
        let kernel_s = flop_time.max(mem_time) + call_overhead;

        CostBreakdown { spawn_s, sync_s, copy_s, kernel_s }
    }

    /// One noisy measurement (repetition `rep`) of a plan-grid point in
    /// seconds: log-normal multiplicative noise plus occasional heavy-tail
    /// spikes. A thread count is [`PlanPoint::threads_only`]: a default-axes
    /// point draws its noise from the seed words the threads-only model
    /// always used (so every timing gathered before the plan axes existed
    /// keeps its bits); other points extend them with the plan axes so
    /// distinct plans scatter independently.
    pub fn measure_point(&self, shape: GemmShape, point: &PlanPoint, rep: u32) -> f64 {
        let expected = self.expected_point(shape, point).total();
        let words = [
            self.seed,
            shape.m,
            shape.k,
            shape.n,
            point.threads as u64,
            rep as u64,
            matches!(self.affinity, Affinity::ThreadBased) as u64,
            0x504C_414E, // "PLAN": keeps plan streams off the legacy ones
            // The deleted ISA axis's word, the value of its dispatched
            // choice: noise streams keep their bits.
            0,
            point.blocking.mc_percent as u64,
            point.blocking.kc_percent as u64,
            point.blocking.nc_percent as u64,
            // The deleted packing axis's shared-B word, kept the same way.
            0,
            match point.algorithm {
                Algorithm::Blocked => 0,
                Algorithm::ZOrder => 1,
                Algorithm::Strassen { cutoff } => 0x100 + cutoff as u64,
            },
        ];
        const LEGACY_WORDS: usize = 7;
        self.noisy(expected, if point.is_default_axes() { &words[..LEGACY_WORDS] } else { &words })
    }

    /// `expected` under the measurement noise drawn from seed `words`.
    pub(crate) fn noisy(&self, expected: f64, words: &[u64]) -> f64 {
        let seed = combine(words);
        expected
            * lognormal_factor(seed, self.noise_sigma)
            * spike_factor(seed, self.spike_prob, self.spike_scale)
    }

    /// The thread count minimising the noise-free expected runtime
    /// (used to label training data and to build the paper's optimal-
    /// thread histograms).
    pub fn optimal_threads(&self, shape: GemmShape) -> u32 {
        (1..=self.max_threads())
            .min_by(|&a, &b| {
                self.expected(shape, a)
                    .total()
                    .partial_cmp(&self.expected(shape, b).total())
                    .expect("finite costs")
            })
            .expect("at least one thread")
    }

    /// Effective GFLOPS of a shape at a thread count (noise-free).
    pub fn gflops(&self, shape: GemmShape, threads: u32) -> f64 {
        shape.flops() as f64 / self.expected(shape, threads).total() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(d: u64) -> GemmShape {
        GemmShape::new(d, d, d)
    }

    #[test]
    fn costs_are_positive_and_finite() {
        for model in [MachineModel::setonix(), MachineModel::gadi()] {
            for shape in [sq(64), sq(1000), GemmShape::new(64, 2048, 64)] {
                for p in [1, 2, 7, 48, model.max_threads()] {
                    let c = model.expected(shape, p);
                    assert!(c.total().is_finite() && c.total() > 0.0, "{shape:?} p={p}");
                    assert!(c.spawn_s >= 0.0 && c.sync_s >= 0.0);
                    assert!(c.copy_s > 0.0 && c.kernel_s > 0.0);
                }
            }
        }
    }

    #[test]
    fn single_thread_has_no_sync() {
        let c = MachineModel::setonix().expected(sq(512), 1);
        assert_eq!(c.spawn_s, 0.0);
        assert_eq!(c.sync_s, 0.0);
    }

    #[test]
    fn large_square_scales_with_threads() {
        // 4096³ should run much faster on many threads than on one.
        for model in [MachineModel::setonix(), MachineModel::gadi()] {
            let serial = model.expected(sq(4096), 1).total();
            let half = model.expected(sq(4096), model.max_threads() / 2).total();
            assert!(
                half < serial / 8.0,
                "{}: insufficient scaling {serial} -> {half}",
                model.topology.name
            );
        }
    }

    #[test]
    fn tiny_gemm_prefers_few_threads() {
        for model in [MachineModel::setonix(), MachineModel::gadi()] {
            let opt = model.optimal_threads(sq(64));
            assert!(
                opt <= model.max_threads() / 8,
                "{}: tiny GEMM optimal {opt}",
                model.topology.name
            );
        }
    }

    #[test]
    fn large_square_prefers_many_threads() {
        for model in [MachineModel::setonix(), MachineModel::gadi()] {
            let opt = model.optimal_threads(sq(4000));
            assert!(
                opt >= model.max_threads() / 4,
                "{}: large GEMM optimal {opt} of {}",
                model.topology.name,
                model.max_threads()
            );
        }
    }

    #[test]
    fn max_threads_suboptimal_for_most_small_shapes() {
        // The paper's headline observation (Fig. 1): at ≤ 100 MB the
        // maximum thread count is rarely the best choice.
        let model = MachineModel::gadi();
        let p_max = model.max_threads();
        let shapes = [
            sq(128),
            sq(256),
            sq(512),
            GemmShape::new(64, 2048, 64),
            GemmShape::new(64, 64, 4096),
            GemmShape::new(2048, 64, 64),
            GemmShape::new(100, 5000, 100),
        ];
        let worse_at_max = shapes
            .iter()
            .filter(|&&s| {
                model.expected(s, p_max).total()
                    > model.expected(s, model.optimal_threads(s)).total() * 1.05
            })
            .count();
        assert!(worse_at_max >= 5, "only {worse_at_max}/7 small shapes prefer fewer threads");
    }

    #[test]
    fn skewed_small_mn_large_k_prefers_one_thread_on_gadi() {
        // Paper Table VII: ML picked 1 thread for (64, 64, 4096)... on the
        // k-dominant case the chosen count was 1. Our model must make very
        // low counts optimal (≤ 4).
        let model = MachineModel::gadi();
        let opt = model.optimal_threads(GemmShape::new(64, 4096, 64));
        assert!(opt <= 8, "optimal {opt} for copy-bound skewed shape");
    }

    #[test]
    fn table7_outlier_shape_is_copy_dominated_at_max_threads() {
        // (64, 2048, 64) at 96 threads on Gadi: copy must dominate the
        // breakdown by a wide margin (paper: 163 s of 168 s total).
        let model = MachineModel::gadi();
        let c = model.expected(GemmShape::new(64, 2048, 64), 96);
        assert!(
            c.copy_s > 5.0 * c.kernel_s,
            "copy {:.2e} not dominating kernel {:.2e}",
            c.copy_s,
            c.kernel_s
        );
        // And the ML-chosen low thread count must be dramatically faster.
        let fast = model.expected(GemmShape::new(64, 2048, 64), 14);
        let speedup = c.total() / fast.total();
        assert!(speedup > 10.0, "outlier speedup only {speedup:.1}");
    }

    #[test]
    fn core_based_affinity_wins_at_low_thread_counts() {
        // Fig. 7: core-based is faster below half the maximum threads and
        // converges at the maximum.
        for base in [MachineModel::setonix(), MachineModel::gadi()] {
            let core = base.with_affinity(Affinity::CoreBased);
            let thread = base.with_affinity(Affinity::ThreadBased);
            let shape = sq(1500);
            let p_low = base.max_threads() / 4;
            let t_core = core.expected(shape, p_low).total();
            let t_thread = thread.expected(shape, p_low).total();
            assert!(
                t_core < t_thread,
                "{}: core-based {t_core} not faster than thread-based {t_thread} at p={p_low}",
                base.topology.name
            );
            let p_max = base.max_threads();
            let ratio = core.expected(shape, p_max).total() / thread.expected(shape, p_max).total();
            assert!(
                (0.95..1.05).contains(&ratio),
                "{}: affinities did not converge at max threads: {ratio}",
                base.topology.name
            );
        }
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let model = MachineModel::setonix();
        let point = PlanPoint::threads_only(16);
        let a = model.measure_point(sq(300), &point, 0);
        let b = model.measure_point(sq(300), &point, 0);
        assert_eq!(a, b);
        let c = model.measure_point(sq(300), &point, 1);
        assert_ne!(a, c, "different reps must differ");
        let expected = model.expected(sq(300), 16).total();
        // σ = 0.12 log-normal plus rare heavy-tail spikes: a single draw
        // stays within half and a handful of multiples of the mean.
        assert!((a / expected) > 0.5 && (a / expected) < 30.0, "noise too wild");
    }

    #[test]
    fn measure_avg_converges_near_expected() {
        let model = MachineModel::gadi();
        let expected = model.expected(sq(500), 24).total();
        let point = PlanPoint::threads_only(24);
        let avg = (0..400).map(|r| model.measure_point(sq(500), &point, r)).sum::<f64>() / 400.0;
        // Spikes lift the mean slightly above the noise-free expectation
        // (E[spike] = 1 + prob·scale ≈ 1.03).
        assert!((0.95..1.15).contains(&(avg / expected)), "avg {avg} vs expected {expected}");
    }

    #[test]
    fn gflops_sanity() {
        // Large square GEMM at a good thread count should land within
        // believable fractions of node peak.
        let model = MachineModel::setonix();
        let g = model.gflops(sq(4000), 128);
        assert!((200.0..8000.0).contains(&g), "Setonix large-GEMM GFLOPS {g} implausible");
        let model = MachineModel::gadi();
        let g = model.gflops(sq(4000), 48);
        assert!((50.0..5000.0).contains(&g), "Gadi large-GEMM GFLOPS {g} implausible");
    }

    #[test]
    fn default_point_is_bit_identical_to_threads_only_model() {
        for model in [MachineModel::setonix(), MachineModel::gadi()] {
            for shape in [sq(64), sq(1000), GemmShape::new(64, 2048, 64)] {
                for p in [1, 16, 96] {
                    let point = PlanPoint::threads_only(p);
                    assert_eq!(model.expected(shape, p), model.expected_point(shape, &point));
                }
            }
        }
        // Noisy measurements of default-axes points, recorded from the
        // threads-only `measure(shape, threads, rep)` before it was folded
        // into `measure_point`: `(rep 0, rep 2)` bits.
        let skewed = GemmShape::new(64, 2048, 64);
        let recorded = [
            (MachineModel::setonix(), sq(64), 16, [0x3f15a899adb756e7, 0x3f151dd39baddff5]),
            (MachineModel::setonix(), skewed, 96, [0x3f88ff1568d2454c, 0x3f8a04850348f18e]),
            (MachineModel::gadi(), sq(64), 16, [0x3f55a63d843991b8, 0x3f54740088842455]),
            (MachineModel::gadi(), skewed, 96, [0x3fc8c4098a18a7c6, 0x3fc5f29fb6120ea0]),
        ];
        for (model, shape, p, [rep0, rep2]) in recorded {
            let point = PlanPoint::threads_only(p);
            assert_eq!(model.measure_point(shape, &point, 0).to_bits(), rep0, "{shape:?} p={p}");
            assert_eq!(model.measure_point(shape, &point, 2).to_bits(), rep2, "{shape:?} p={p}");
        }
    }

    /// Noisy measurements of non-default points, recorded while the grid
    /// still had `B`-packing and ISA axes (every point here was shared-`B`
    /// on the dispatched kernel): `(rep 0, rep 2)` bits. They draw from the
    /// full seed words, so they pin that the deleted axes' words are still
    /// the shared-`B` and dispatched `0`s.
    #[test]
    fn non_default_points_keep_their_recorded_bits() {
        use adsala_gemm::plan::BlockScale;
        let blocked =
            PlanPoint { blocking: BlockScale::new(100, 50, 200), ..PlanPoint::threads_only(96) };
        let strassen = PlanPoint {
            algorithm: Algorithm::Strassen { cutoff: 256 },
            ..PlanPoint::threads_only(48)
        };
        let zorder = PlanPoint { algorithm: Algorithm::ZOrder, ..PlanPoint::threads_only(1) };
        let recorded = [
            (
                MachineModel::gadi(),
                GemmShape::new(64, 2048, 64),
                blocked,
                [0x3fd42c21751d71a8, 0x3fd59f1c37c64dae],
            ),
            (MachineModel::setonix(), sq(1024), strassen, [0x3f78c33760e6b8ce, 0x3f776a3354a06c89]),
            (MachineModel::setonix(), sq(300), zorder, [0x3f548e6fed566c24, 0x3f53c79e3b0d0657]),
        ];
        for (model, shape, point, [rep0, rep2]) in recorded {
            assert_eq!(model.measure_point(shape, &point, 0).to_bits(), rep0, "{point:?}");
            assert_eq!(model.measure_point(shape, &point, 2).to_bits(), rep2, "{point:?}");
        }
    }

    #[test]
    fn block_scale_moves_barrier_and_writeback_counts() {
        let model = MachineModel::gadi();
        let shape = GemmShape::new(256, 8192, 256);
        let base = model.expected_point(shape, &PlanPoint::threads_only(48));
        let wide = model.expected_point(
            shape,
            &PlanPoint {
                blocking: adsala_gemm::plan::BlockScale::uniform(200),
                ..PlanPoint::threads_only(48)
            },
        );
        assert!(wide.sync_s < base.sync_s, "bigger KC means fewer panel barriers");
        // A kc-only widening moves barriers exactly like the uniform one
        // (only the kc axis enters the barrier count)...
        let kc_only = model.expected_point(
            shape,
            &PlanPoint {
                blocking: adsala_gemm::plan::BlockScale::new(100, 200, 100),
                ..PlanPoint::threads_only(48)
            },
        );
        assert_eq!(kc_only.sync_s, wide.sync_s);
        // Every non-default plan point stays finite and positive, over
        // both the legacy and the widened grid.
        for grid in [
            adsala_gemm::plan::PlanGrid::full(vec![1, 48]),
            adsala_gemm::plan::PlanGrid::widened(vec![1, 48], 512),
        ] {
            for point in grid.points() {
                let c = model.expected_point(shape, &point);
                assert!(c.total().is_finite() && c.total() > 0.0, "{point:?}");
            }
        }
    }

    #[test]
    fn strassen_trades_kernel_flops_for_sync_and_copy() {
        let model = MachineModel::gadi();
        let strassen = |p: u32| PlanPoint {
            algorithm: Algorithm::Strassen { cutoff: 512 },
            ..PlanPoint::threads_only(p)
        };
        // Compute-bound large square at low thread counts: the (7/8)^L
        // FLOP saving wins, and by the ≥ 1.15× margin real Strassen
        // implementations report at these sizes.
        let big = sq(4096);
        let blocked = model.expected_point(big, &PlanPoint::threads_only(1));
        let fast = model.expected_point(big, &strassen(1));
        assert!(fast.kernel_s < blocked.kernel_s, "Strassen must cut kernel time");
        assert!(
            fast.total() * 1.15 < blocked.total(),
            "Strassen should win a serial 4096³ by ≥ 1.15×: {:.3e} vs {:.3e}",
            fast.total(),
            blocked.total()
        );
        // At the full 96-thread count the tiny base cases thrash (the
        // same Table VII contention pathology the blocked model has), so
        // blocked must win there — Strassen is a low-parallelism play.
        let wide_blocked = model.expected_point(big, &PlanPoint::threads_only(96)).total();
        let wide_strassen = model.expected_point(big, &strassen(96)).total();
        assert!(wide_strassen > wide_blocked, "Strassen must lose at full thread count");
        // Ineligible shape (odd dimension): priced exactly as blocked,
        // mirroring the dispatcher's degrade.
        let odd = GemmShape::new(4095, 4096, 4096);
        assert_eq!(
            model.expected_point(odd, &strassen(24)),
            model.expected_point(odd, &PlanPoint::threads_only(24))
        );
        // An eligible skewed copy-bound shape: the duplicated base-call
        // packing must make Strassen lose even serially.
        let skew = GemmShape::new(1024, 8192, 1024);
        let sk_blocked = model.expected_point(skew, &PlanPoint::threads_only(96)).total();
        let sk_strassen = model.expected_point(skew, &strassen(96)).total();
        assert!(sk_strassen > sk_blocked, "Strassen must lose a copy-bound skewed shape");
    }

    #[test]
    fn zorder_prices_as_serial_blocked_with_cheaper_repacks() {
        let model = MachineModel::gadi();
        let shape = sq(1000);
        let z = PlanPoint { algorithm: Algorithm::ZOrder, ..PlanPoint::threads_only(48) };
        let priced = model.expected_point(shape, &z);
        let serial = model.expected_point(shape, &PlanPoint::threads_only(1));
        assert_eq!(priced.kernel_s, serial.kernel_s);
        assert_eq!(priced.sync_s, 0.0, "Z-order is serial: no barriers");
        assert!(priced.copy_s < serial.copy_s, "Morton reuse must save repack traffic");
    }

    #[test]
    fn plan_points_get_independent_noise_streams() {
        let model = MachineModel::gadi();
        let shape = sq(500);
        let a = PlanPoint {
            blocking: adsala_gemm::plan::BlockScale::uniform(200),
            ..PlanPoint::threads_only(24)
        };
        let b = PlanPoint { algorithm: Algorithm::ZOrder, ..PlanPoint::threads_only(24) };
        let ma = model.measure_point(shape, &a, 0);
        assert_eq!(ma, model.measure_point(shape, &a, 0), "deterministic");
        let ra = ma / model.expected_point(shape, &a).total();
        let rb = model.measure_point(shape, &b, 0) / model.expected_point(shape, &b).total();
        assert_ne!(ra, rb, "distinct plan axes must draw distinct noise");
    }

    #[test]
    fn smt_off_changes_the_machine() {
        let on = MachineModel::setonix();
        let off = on.without_smt();
        assert_eq!(off.max_threads(), 128);
        // At or below the physical core count the machines are identical
        // (SMT only matters once cores are shared)...
        assert_eq!(on.expected(sq(1000), 128).total(), off.expected(sq(1000), 128).total());
        // ...beyond it, the SMT-off machine clamps to 128 threads while
        // the SMT-on machine actually shares cores.
        assert_ne!(on.expected(sq(1000), 256).total(), off.expected(sq(1000), 256).total());
    }
}
