//! Vendor BLAS behaviour profiles.
//!
//! The paper uses the platform-recommended library on each machine — BLIS
//! on the AMD node, MKL on the Intel node — and observes *different*
//! optimal-thread-count patterns on each (Fig. 9a vs 9b). The library is a
//! black box to ADSALA; what differs observably is how it partitions work
//! across threads, how much packing it duplicates, its synchronisation
//! cost and its small-problem overheads. [`Vendor`] captures those
//! behavioural constants for the cost model.

use serde::{Deserialize, Serialize};

/// Which vendor-library behaviour profile to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// AMD BLIS-like: symmetric 2-D partitioning, moderate packing
    /// discipline, AVX2 micro-kernels (used on the Setonix model).
    BlisLike,
    /// Intel MKL-like: column-biased partitioning, larger micro-tiles,
    /// aggressive small-GEMM paths with heavier buffer management under
    /// many threads (used on the Gadi model).
    MklLike,
}

/// Behavioural constants of a vendor profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VendorParams {
    /// Rank-update depth `KC` (elements).
    pub kc: u64,
    /// Micro-kernel rows `MR`.
    pub mr: u64,
    /// Micro-kernel columns `NR`.
    pub nr: u64,
    /// Sustained fraction of peak FLOPs in ideal (large, aligned) kernels.
    pub kernel_eff: f64,
    /// Compute-capacity multiplier when both SMT siblings of a core run
    /// kernel code. Dense GEMM saturates the FMA pipes from one thread,
    /// so this is ≈ 1 (slightly below for BLIS on Zen 3, where sibling
    /// threads fight over the halved L1/L2); memory-*bound* kernels gain
    /// separately via [`VendorParams::smt_mem_gain`].
    pub smt_gain: f64,
    /// Memory-bandwidth extraction multiplier at full SMT occupancy:
    /// latency hiding lets two sibling threads keep more loads in flight.
    pub smt_mem_gain: f64,
    /// Barrier cost coefficient: seconds per `log₂ p` per barrier.
    pub sync_per_barrier_s: f64,
    /// Additional barrier cost fraction per extra socket spanned.
    pub sync_numa_penalty: f64,
    /// Thread-team wake cost per thread (seconds).
    pub spawn_per_thread_s: f64,
    /// Base per-(thread, block) copy-phase overhead (seconds): buffer
    /// management, page faults, allocator locks.
    pub copy_lock_s: f64,
    /// Oversubscription penalty: when the thread count exceeds the number
    /// of `MR×NR` output micro-tiles, surplus threads thrash the buffer
    /// pool and coherence fabric. The copy overhead scales with
    /// `1 + penalty · (p / tiles) · sockets` — the mechanism behind the
    /// paper's Table VII outlier, where 96 threads fight over a 64×64
    /// output (sixteen 16×16 tiles) and spend 97 % of wall time copying.
    pub oversub_penalty: f64,
    /// Grid bias: > 0 prefers splitting columns (`n`) over rows (`m`).
    pub split_n_bias: f64,
    /// Micro-kernel invocation overhead (seconds per call).
    pub kernel_call_s: f64,
}

impl Vendor {
    /// The constants of this profile.
    pub fn params(self) -> VendorParams {
        match self {
            Vendor::BlisLike => VendorParams {
                kc: 384,
                mr: 8,
                nr: 8,
                kernel_eff: 0.55,
                smt_gain: 0.97,
                smt_mem_gain: 1.18,
                sync_per_barrier_s: 0.8e-6,
                sync_numa_penalty: 0.5,
                spawn_per_thread_s: 0.25e-6,
                copy_lock_s: 0.8e-6,
                oversub_penalty: 8.0,
                split_n_bias: 0.0,
                kernel_call_s: 12e-9,
            },
            Vendor::MklLike => VendorParams {
                kc: 256,
                mr: 16,
                nr: 16,
                kernel_eff: 0.65,
                smt_gain: 1.15,
                smt_mem_gain: 1.25,
                sync_per_barrier_s: 0.5e-6,
                sync_numa_penalty: 0.35,
                spawn_per_thread_s: 0.2e-6,
                copy_lock_s: 1.0e-6,
                oversub_penalty: 40.0,
                split_n_bias: 0.35,
                kernel_call_s: 10e-9,
            },
        }
    }

    /// Choose the `pr × pc` thread grid for `p` threads on an `m × n`
    /// output: among the factor pairs of `p`, minimise the log tile-aspect
    /// mismatch plus the vendor's column-split bias.
    pub fn grid(self, p: u64, m: u64, n: u64) -> (u64, u64) {
        let params = self.params();
        let p = p.max(1);
        let mut best = (1, p);
        let mut best_score = f64::INFINITY;
        let mut pr = 1;
        while pr * pr <= p {
            if p.is_multiple_of(pr) {
                for (r, c) in [(pr, p / pr), (p / pr, pr)] {
                    let tile_m = (m.max(1)).div_ceil(r) as f64;
                    let tile_n = (n.max(1)).div_ceil(c) as f64;
                    let score =
                        (tile_m / tile_n).ln().abs() + params.split_n_bias * (r as f64).ln();
                    if score < best_score {
                        best_score = score;
                        best = (r, c);
                    }
                }
            }
            pr += 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_threads() {
        for vendor in [Vendor::BlisLike, Vendor::MklLike] {
            for p in 1..=64 {
                let (pr, pc) = vendor.grid(p, 1000, 1000);
                assert_eq!(pr * pc, p, "{vendor:?} grid dropped threads at p={p}");
            }
        }
    }

    #[test]
    fn square_output_gets_square_grid() {
        let (pr, pc) = Vendor::BlisLike.grid(16, 2048, 2048);
        assert_eq!((pr, pc), (4, 4));
    }

    #[test]
    fn tall_output_splits_rows() {
        let (pr, pc) = Vendor::BlisLike.grid(8, 8192, 64);
        assert!(pr > pc, "expected row split, got {pr}x{pc}");
    }

    #[test]
    fn wide_output_splits_columns() {
        let (pr, pc) = Vendor::BlisLike.grid(8, 64, 8192);
        assert!(pc > pr, "expected column split, got {pr}x{pc}");
    }

    #[test]
    fn mkl_bias_prefers_column_splits() {
        // On a square output with a non-square factorisation available,
        // the MKL profile should lean towards more column groups.
        let (br, _bc) = Vendor::BlisLike.grid(8, 512, 512);
        let (mr, mc) = Vendor::MklLike.grid(8, 512, 512);
        assert!(mc >= mr, "MKL profile split rows harder than columns");
        assert!(mr <= br, "MKL profile should not use more row groups than BLIS");
    }

    #[test]
    fn params_are_sane() {
        for vendor in [Vendor::BlisLike, Vendor::MklLike] {
            let p = vendor.params();
            assert!(p.kernel_eff > 0.0 && p.kernel_eff <= 1.0);
            assert!(p.smt_gain >= 0.9 && p.smt_gain <= 2.0);
            assert!(p.smt_mem_gain >= 1.0 && p.smt_mem_gain <= 2.0);
            assert!(p.kc > 0 && p.mr > 0 && p.nr > 0);
        }
    }
}
