//! Per-call execution statistics: the host-side analogue of the paper's
//! VTune breakdown (Table VII).
//!
//! Every [`crate::gemm_with_stats`] call reports how much time went into
//! the three wall-time components the paper identifies — synchronisation,
//! data copies (packing), kernel calls — plus volume counters that the
//! machine-model crate validates its analytic cost terms against.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::isa::KernelIsa;
use crate::plan::Algorithm;

/// Aggregated statistics for one GEMM call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmStats {
    /// The instruction set of the micro-kernel that produced this call's
    /// FLOPs (benchmarks record it next to every timing). Level-2
    /// routines without a register-tile kernel report
    /// [`KernelIsa::Scalar`].
    pub kernel_isa: KernelIsa,
    /// The algorithm that *executed* — which may differ from the plan's
    /// request when an ineligible shape degrades (e.g. Strassen refused
    /// below its cutoff runs [`Algorithm::Blocked`]). Telemetry compares
    /// this against the plan to count algorithm downgrades.
    pub algorithm: Algorithm,
    /// Effective register-tile rows of the dispatched kernel (1 for
    /// routines without a tiled kernel, 0 only on `GemmStats::default`).
    pub mr: usize,
    /// Effective register-tile columns of the dispatched kernel.
    pub nr: usize,
    /// Threads that actually ran (≤ requested; tiny problems use fewer).
    pub threads_used: usize,
    /// Thread-grid rows (partition of `C`'s row dimension).
    pub grid_rows: usize,
    /// Thread-grid columns (partition of `C`'s column dimension).
    pub grid_cols: usize,
    /// Bytes written while packing `A` micro-panels (padding included),
    /// summed over threads — only what was copied: a worker whose operands
    /// fit L2 reads them in place and copies only its ragged strips (see
    /// [`crate::pack`]), so this is not the volume the kernels read.
    pub a_packed_bytes: u64,
    /// Bytes written while packing `B` micro-panels, summed over threads;
    /// like `a_packed_bytes`, only what was copied.
    pub b_packed_bytes: u64,
    /// Packing-scratch bytes served from a warm arena without touching
    /// the allocator, summed over threads. On a steady-state serving
    /// path this equals the whole packing workspace per call.
    pub arena_bytes_reused: u64,
    /// Micro-kernel invocations, summed over threads.
    pub kernel_calls: u64,
    /// Nanoseconds spent packing, summed over threads: the copies counted
    /// in `a_packed_bytes` / `b_packed_bytes` and nothing else (a call that
    /// copies nothing reports 0).
    pub pack_ns: u64,
    /// Nanoseconds spent inside micro-kernels, summed over threads.
    pub kernel_ns: u64,
    /// Nanoseconds of dispatch/join overhead observed by the caller: wall
    /// time minus the slowest thread's busy time.
    pub sync_ns: u64,
    /// End-to-end wall time of the call in nanoseconds.
    pub wall_ns: u64,
}

impl GemmStats {
    /// Total packed bytes (`A` + `B`).
    pub fn packed_bytes(&self) -> u64 {
        self.a_packed_bytes + self.b_packed_bytes
    }

    /// Fraction of summed thread time spent copying (0 if nothing ran).
    pub fn copy_fraction(&self) -> f64 {
        let busy = self.pack_ns + self.kernel_ns;
        if busy == 0 {
            0.0
        } else {
            self.pack_ns as f64 / busy as f64
        }
    }
}

/// Thread-safe accumulator the parallel driver aggregates into.
#[derive(Debug, Default)]
pub struct StatsCollector {
    pub a_packed_bytes: AtomicU64,
    pub b_packed_bytes: AtomicU64,
    pub arena_bytes_reused: AtomicU64,
    pub kernel_calls: AtomicU64,
    pub pack_ns: AtomicU64,
    pub kernel_ns: AtomicU64,
    /// Maximum per-thread busy time, for deriving sync overhead.
    pub max_busy_ns: AtomicU64,
}

impl StatsCollector {
    /// Fold one thread's local counters in.
    pub fn absorb(&self, local: &ThreadLocalStats) {
        self.a_packed_bytes.fetch_add(local.a_packed_bytes, Ordering::Relaxed);
        self.b_packed_bytes.fetch_add(local.b_packed_bytes, Ordering::Relaxed);
        self.arena_bytes_reused.fetch_add(local.arena_bytes_reused, Ordering::Relaxed);
        self.kernel_calls.fetch_add(local.kernel_calls, Ordering::Relaxed);
        self.pack_ns.fetch_add(local.pack_ns, Ordering::Relaxed);
        self.kernel_ns.fetch_add(local.kernel_ns, Ordering::Relaxed);
        self.max_busy_ns.fetch_max(local.pack_ns + local.kernel_ns, Ordering::Relaxed);
    }

    /// Finalise into a [`GemmStats`] snapshot. `kernel` names the
    /// dispatched micro-kernel as `(isa, mr, nr)`.
    pub fn finish(
        &self,
        threads_used: usize,
        grid_rows: usize,
        grid_cols: usize,
        wall_ns: u64,
        kernel: (KernelIsa, usize, usize),
    ) -> GemmStats {
        let max_busy = self.max_busy_ns.load(Ordering::Relaxed);
        GemmStats {
            kernel_isa: kernel.0,
            algorithm: Algorithm::Blocked,
            mr: kernel.1,
            nr: kernel.2,
            threads_used,
            grid_rows,
            grid_cols,
            a_packed_bytes: self.a_packed_bytes.load(Ordering::Relaxed),
            b_packed_bytes: self.b_packed_bytes.load(Ordering::Relaxed),
            arena_bytes_reused: self.arena_bytes_reused.load(Ordering::Relaxed),
            kernel_calls: self.kernel_calls.load(Ordering::Relaxed),
            pack_ns: self.pack_ns.load(Ordering::Relaxed),
            kernel_ns: self.kernel_ns.load(Ordering::Relaxed),
            sync_ns: wall_ns.saturating_sub(max_busy),
            wall_ns,
        }
    }
}

/// Predicted-vs-measured runtime error over a set of executed ops, in
/// log space (the serving layer's feedback loop accumulates it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictionErrorStats {
    /// Ops that carried both a prediction and a measurement.
    pub samples: u64,
    /// Mean |ln(measured / predicted)| — 0 is a perfect model.
    pub mean_abs_log_error: f64,
    /// Mean signed ln(measured / predicted) — positive means the model is
    /// systematically optimistic (reality slower than predicted).
    pub mean_log_ratio: f64,
    /// Fraction of ops where reality was slower than the prediction.
    pub overshoot_fraction: f64,
}

impl PredictionErrorStats {
    /// Mean absolute error expressed as a percentage: a mean log error of
    /// `e` corresponds to a typical multiplicative miss of `exp(e)`.
    pub fn mean_abs_pct(&self) -> f64 {
        (self.mean_abs_log_error.exp() - 1.0) * 100.0
    }
}

/// Per-thread counters, folded into the shared collector once at the end so
/// the hot loops never touch an atomic.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadLocalStats {
    pub a_packed_bytes: u64,
    pub b_packed_bytes: u64,
    pub arena_bytes_reused: u64,
    pub kernel_calls: u64,
    pub pack_ns: u64,
    pub kernel_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_finish_sum_counters() {
        let c = StatsCollector::default();
        c.absorb(&ThreadLocalStats {
            a_packed_bytes: 10,
            b_packed_bytes: 20,
            arena_bytes_reused: 40,
            kernel_calls: 3,
            pack_ns: 100,
            kernel_ns: 200,
        });
        c.absorb(&ThreadLocalStats {
            a_packed_bytes: 1,
            b_packed_bytes: 2,
            arena_bytes_reused: 2,
            kernel_calls: 4,
            pack_ns: 50,
            kernel_ns: 75,
        });
        let s = c.finish(2, 2, 1, 1000, (KernelIsa::Scalar, 8, 8));
        assert_eq!((s.kernel_isa, s.mr, s.nr), (KernelIsa::Scalar, 8, 8));
        assert_eq!(s.a_packed_bytes, 11);
        assert_eq!(s.b_packed_bytes, 22);
        assert_eq!(s.packed_bytes(), 33);
        assert_eq!(s.arena_bytes_reused, 42);
        assert_eq!(s.kernel_calls, 7);
        assert_eq!(s.pack_ns, 150);
        assert_eq!(s.kernel_ns, 275);
        // Slowest thread was busy 300 ns of the 1000 ns wall.
        assert_eq!(s.sync_ns, 700);
    }

    #[test]
    fn copy_fraction_bounds() {
        let mut s = GemmStats::default();
        assert_eq!(s.copy_fraction(), 0.0);
        s.pack_ns = 300;
        s.kernel_ns = 100;
        assert!((s.copy_fraction() - 0.75).abs() < 1e-12);
    }
}
