//! Cost models for BLAS routines beyond GEMM — the paper's stated future
//! work ("extend our ML-driven runtime thread selection approach to other
//! BLAS operations"), timed by [`crate::SimTimer::for_routine`].
//!
//! Each routine maps its dimension tuple into a GEMM shape
//! ([`adsala_gemm::OpShape::gemm_equivalent`]) so the whole ADSALA
//! pipeline (Table II features, preprocessing, model zoo, runtime
//! selection) applies unchanged:
//!
//! * **SYRK** `C ← α·A·Aᵀ + β·C` (`A` is `m×k`) ↦ `GemmShape{m, k, n: m}`
//!   — GEMM-like anatomy with half the FLOPs and only `A` traffic;
//! * **GEMV** `y ← α·A·x + β·y` (`A` is `m×n`) ↦ `GemmShape{m, k: n, n: 1}`
//!   — no packing, memory-bound once the matrix streams from DRAM, so the
//!   optimal thread count saturates at the bandwidth knee instead of the
//!   core count.

use adsala_gemm::Routine;
use adsala_sampling::GemmShape;

use crate::cost::{CostBreakdown, MachineModel};
use crate::topology::Placement;

impl MachineModel {
    /// Noise-free expected cost of a SYRK with an `m×k` input at
    /// `threads` threads.
    ///
    /// Derived from the GEMM model at `(m, k, m)`: half the FLOPs (only
    /// the lower triangle is computed), `B`-side packing replaced by a
    /// second read of `A` (same volume but no transposed-layout penalty),
    /// and identical sync anatomy.
    pub fn expected_syrk(&self, m: u64, k: u64, threads: u32) -> CostBreakdown {
        let gemm = self.expected(GemmShape::new(m, k, m), threads);
        CostBreakdown {
            spawn_s: gemm.spawn_s,
            sync_s: gemm.sync_s,
            // A is packed for both operand roles; the total copy volume
            // matches GEMM's A-side + B-side with n = m, minus the output
            // not materialised above the diagonal (≈ half the tile pad).
            copy_s: gemm.copy_s * 0.75,
            kernel_s: gemm.kernel_s * 0.5 + gemm.kernel_s * 0.5 * DIAG_WASTE,
        }
    }

    /// Noise-free expected cost of a GEMV with an `m×n` matrix at
    /// `threads` threads.
    ///
    /// Level-2: the matrix streams once from memory; FLOPs are `2·m·n`.
    /// Roofline of per-thread streaming vs aggregate bandwidth, plus the
    /// usual spawn cost (no packing, one implicit barrier).
    pub fn expected_gemv(&self, m: u64, n: u64, threads: u32) -> CostBreakdown {
        let topo = &self.topology;
        let params = self.vendor.params();
        let p = threads.clamp(1, topo.total_threads());
        let place = Placement::place(topo, p, self.affinity);
        let es = self.element_bytes as f64;
        let bytes = es * (m * n + m + n) as f64;

        // Aggregate bandwidth grows with sockets spanned; a single thread
        // streams only a few GB/s.
        let per_thread_bw = 11e9;
        let interleave_eff = 1.0 / (1.0 + 0.15 * (place.sockets_used - 1) as f64);
        let bw = (topo.socket_bw() * place.sockets_used as f64 * interleave_eff)
            .min(p as f64 * per_thread_bw);
        let stream_s = bytes / bw;

        // Compute ceiling rarely binds but exists (tiny n).
        let freq = topo.freq_at(place.cores_used);
        let flops = 2.0 * (m * n) as f64;
        let capacity = place.cores_used as f64 * topo.core_peak_flops(freq) * 0.25;
        let flop_s = flops / capacity.max(1.0);

        let (spawn_s, sync_s) = if p <= 1 {
            (0.0, 0.0)
        } else {
            (
                params.spawn_per_thread_s * p as f64,
                params.sync_per_barrier_s
                    * (p as f64).log2()
                    * (1.0 + params.sync_numa_penalty * (place.sockets_used - 1) as f64),
            )
        };
        CostBreakdown { spawn_s, sync_s, copy_s: 0.0, kernel_s: stream_s.max(flop_s) }
    }

    /// One noisy measurement of a SYRK `(m, k)` or GEMV `(m, n)`.
    /// Panics on GEMM, which [`MachineModel::measure_point`] prices.
    pub(crate) fn measure_op(&self, op: Routine, d1: u64, d2: u64, threads: u32, rep: u32) -> f64 {
        let expected = match op {
            Routine::Gemm => panic!("GEMM is priced by measure_point"),
            Routine::Syrk => self.expected_syrk(d1, d2, threads).total(),
            Routine::Gemv => self.expected_gemv(d1, d2, threads).total(),
        };
        self.noisy(expected, &[self.seed, op as u64 + 101, d1, d2, threads as u64, rep as u64])
    }
}

/// Fraction of diagonal-tile work wasted computing the masked upper part.
const DIAG_WASTE: f64 = 0.08;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syrk_costs_are_cheaper_than_gemm() {
        let model = MachineModel::setonix();
        for &(m, k) in &[(500u64, 500u64), (2000, 200), (100, 4000)] {
            for p in [1u32, 16, 128] {
                let syrk = model.expected_syrk(m, k, p).total();
                let gemm = model.expected(GemmShape::new(m, k, m), p).total();
                assert!(
                    syrk < gemm,
                    "SYRK ({syrk}) not cheaper than the full GEMM ({gemm}) at m={m} k={k} p={p}"
                );
                assert!(syrk > 0.25 * gemm, "SYRK implausibly cheap");
            }
        }
    }

    #[test]
    fn gemv_is_memory_bound_and_saturates_early() {
        let model = MachineModel::gadi();
        let (m, n) = (8000u64, 8000u64);
        let t1 = model.expected_gemv(m, n, 1).total();
        let t8 = model.expected_gemv(m, n, 8).total();
        let t32 = model.expected_gemv(m, n, 32).total();
        let t96 = model.expected_gemv(m, n, 96).total();
        assert!(t8 < t1 * 0.5, "no scaling at all: {t1} -> {t8}");
        // The knee sits where per-thread streaming meets socket bandwidth
        // (~22 threads here): past it, extra threads gain nothing.
        assert!(t96 > t32 * 0.8, "GEMV kept scaling past the bandwidth knee: t32={t32} t96={t96}");
    }

    #[test]
    fn gemv_optimal_thread_count_is_moderate() {
        let model = MachineModel::gadi();
        let best = (1..=96)
            .min_by(|&a, &b| {
                model
                    .expected_gemv(4000, 4000, a)
                    .total()
                    .partial_cmp(&model.expected_gemv(4000, 4000, b).total())
                    .unwrap()
            })
            .unwrap();
        assert!(
            (4..=64).contains(&best),
            "GEMV optimum {best} should sit at the bandwidth knee, not the extremes"
        );
    }

    #[test]
    fn measure_op_noise_behaves() {
        let model = MachineModel::gadi();
        let a = model.measure_op(Routine::Gemv, 2000, 2000, 16, 0);
        let b = model.measure_op(Routine::Gemv, 2000, 2000, 16, 1);
        assert_ne!(a, b);
        let expected = model.expected_gemv(2000, 2000, 16).total();
        assert!(a > 0.3 * expected && a < 30.0 * expected);
    }

    #[test]
    fn syrk_breakdown_components_positive() {
        let c = MachineModel::setonix().expected_syrk(1000, 500, 64);
        assert!(c.kernel_s > 0.0 && c.copy_s > 0.0 && c.sync_s > 0.0);
        assert!(c.total().is_finite());
    }
}
