//! The timing interface the ADSALA installation workflow consumes.
//!
//! `GemmTimer` answers "run a GEMM of this shape on `t` threads and tell
//! me how long it took" — the only thing the paper's data-gathering stage
//! needs from a machine. Two implementations:
//!
//! * [`SimTimer`] — queries the analytic [`MachineModel`] (the paper-scale
//!   experiments: 96–256 thread nodes we do not physically have);
//! * [`HostTimer`] — runs the real blocked GEMM from `adsala-gemm` on the
//!   host CPU and measures wall time, demonstrating that the entire
//!   pipeline also works against genuine hardware.

use std::time::Instant;

use adsala_gemm::dispatch::Precision;
use adsala_gemm::gemm::{gemm_with_stats, GemmCall};
use adsala_gemm::plan::PlanPoint;
use adsala_sampling::GemmShape;

use crate::cost::MachineModel;

/// Source of GEMM timings for a machine with an execution-plan knob.
pub trait GemmTimer {
    /// Mean wall time (seconds) of `reps` runs of `shape` under a plan-grid
    /// point. A timer whose machine has only the thread knob honours the
    /// point's thread axis alone.
    fn time_plan(&self, shape: GemmShape, point: &PlanPoint, reps: u32) -> f64;

    /// Mean wall time (seconds) of `reps` runs of `shape` on `threads`: the
    /// default-axes point at that thread count.
    fn time(&self, shape: GemmShape, threads: u32, reps: u32) -> f64 {
        self.time_plan(shape, &PlanPoint::threads_only(threads), reps)
    }

    /// The machine's maximum thread count (the paper's baseline setting).
    fn max_threads(&self) -> u32;

    /// Short machine identifier for reports.
    fn name(&self) -> String;
}

/// Timer backed by the analytic machine model.
#[derive(Debug, Clone)]
pub struct SimTimer {
    pub model: MachineModel,
}

impl SimTimer {
    /// Wrap a machine model.
    pub fn new(model: MachineModel) -> Self {
        Self { model }
    }
}

impl GemmTimer for SimTimer {
    fn time_plan(&self, shape: GemmShape, point: &PlanPoint, reps: u32) -> f64 {
        // The paper times ten iterations of each configuration (§V-B-3).
        let reps = reps.max(1);
        (0..reps).map(|r| self.model.measure_point(shape, point, r)).sum::<f64>() / reps as f64
    }

    fn max_threads(&self) -> u32 {
        self.model.max_threads()
    }

    fn name(&self) -> String {
        format!("{} (simulated)", self.model.topology.name)
    }
}

/// Timer that runs the real `adsala-gemm` SGEMM on the host.
///
/// It times warm execution on a persistent pool, the executor a service
/// serves on: the process-wide `ThreadPool::global()`, whose workers keep
/// their packing arenas across calls. Operand buffers are reused across
/// repetitions (like the paper's loop of ten same-size GEMMs) and filled
/// with a cheap deterministic pattern.
#[derive(Debug, Clone)]
pub struct HostTimer {
    /// Upper bound on threads (defaults to available host parallelism).
    pub max_threads: u32,
}

impl Default for HostTimer {
    fn default() -> Self {
        let available = std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1);
        Self { max_threads: available }
    }
}

impl HostTimer {
    /// Timer with an explicit thread cap.
    pub fn with_max_threads(max_threads: u32) -> Self {
        Self { max_threads: max_threads.max(1) }
    }
}

impl GemmTimer for HostTimer {
    /// Times `reps` runs after one warm-up run (first-touch, page faults)
    /// kept out of the timing, mirroring standard benchmark practice.
    fn time_plan(&self, shape: GemmShape, point: &PlanPoint, reps: u32) -> f64 {
        let (m, n, k) = (shape.m as usize, shape.n as usize, shape.k as usize);
        let mut plan = point.materialise(Precision::F32);
        plan.threads = plan.threads.clamp(1, self.max_threads);
        let call = GemmCall::new(m, n, k, plan.threads as usize).with_plan(plan);
        let fill = |len: usize, seed: u32| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 500.0
                        - 1.0
                })
                .collect()
        };
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut c = vec![0.0f32; m * n];

        gemm_with_stats(&call, 1.0, &a, k.max(1), &b, n.max(1), 0.0, &mut c, n.max(1));
        let reps = reps.max(1);
        let start = Instant::now();
        for _ in 0..reps {
            gemm_with_stats(&call, 1.0, &a, k.max(1), &b, n.max(1), 0.0, &mut c, n.max(1));
        }
        start.elapsed().as_secs_f64() / reps as f64
    }

    fn max_threads(&self) -> u32 {
        self.max_threads
    }

    fn name(&self) -> String {
        format!("host ({} threads)", self.max_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_timer_matches_model() {
        let model = MachineModel::setonix();
        let timer = SimTimer::new(model.clone());
        let shape = GemmShape::new(500, 500, 500);
        let point = PlanPoint::threads_only(32);
        let mean = (0..10).map(|r| model.measure_point(shape, &point, r)).sum::<f64>() / 10.0;
        assert_eq!(timer.time(shape, 32, 10), mean);
        assert_eq!(timer.max_threads(), 256);
        assert!(timer.name().contains("setonix"));
    }

    #[test]
    fn host_timer_times_real_gemm() {
        let timer = HostTimer::with_max_threads(2);
        let t = timer.time(GemmShape::new(64, 64, 64), 1, 2);
        assert!(t > 0.0 && t < 1.0, "implausible host timing {t}");
    }

    #[test]
    fn host_timer_larger_problems_take_longer() {
        let timer = HostTimer::with_max_threads(1);
        let small = timer.time(GemmShape::new(32, 32, 32), 1, 2);
        let big = timer.time(GemmShape::new(256, 256, 256), 1, 2);
        assert!(big > small, "256³ ({big}) not slower than 32³ ({small})");
    }

    #[test]
    fn sim_timer_time_plan_matches_model_points() {
        use adsala_gemm::plan::PackingStrategy;
        let model = MachineModel::gadi();
        let timer = SimTimer::new(model.clone());
        let shape = GemmShape::new(300, 300, 300);
        let point =
            PlanPoint { packing: PackingStrategy::Independent, ..PlanPoint::threads_only(16) };
        let mean = (0..4).map(|r| model.measure_point(shape, &point, r)).sum::<f64>() / 4.0;
        assert_eq!(timer.time_plan(shape, &point, 4), mean);
        // A thread count is the default-axes point, bit for bit.
        for t in [1, 16, 96] {
            assert_eq!(
                timer.time(shape, t, 4).to_bits(),
                timer.time_plan(shape, &PlanPoint::threads_only(t), 4).to_bits()
            );
        }
    }

    #[test]
    fn host_timer_runs_non_default_plans() {
        use adsala_gemm::plan::{Algorithm, BlockScale, IsaChoice, PackingStrategy};
        let timer = HostTimer::with_max_threads(2);
        let shape = GemmShape::new(48, 48, 48);
        let point = PlanPoint {
            threads: 2,
            isa: IsaChoice::Scalar,
            blocking: BlockScale::uniform(50),
            packing: PackingStrategy::Independent,
            algorithm: Algorithm::Blocked,
        };
        let t = timer.time_plan(shape, &point, 1);
        assert!(t > 0.0 && t < 1.0, "implausible plan timing {t}");
        // Algorithm-axis points run through the real dispatcher too: an
        // eligible Z-order plan and an (ineligible, degrading) Strassen
        // plan must both time without issue.
        for algorithm in [Algorithm::ZOrder, Algorithm::Strassen { cutoff: 64 }] {
            let point = PlanPoint { algorithm, ..PlanPoint::threads_only(2) };
            let t = timer.time_plan(shape, &point, 1);
            assert!(t > 0.0 && t < 1.0, "implausible {algorithm:?} timing {t}");
        }
    }

    #[test]
    fn host_timer_clamps_threads() {
        let timer = HostTimer::with_max_threads(2);
        // Requesting 64 threads must not panic or hang.
        let t = timer.time(GemmShape::new(128, 128, 128), 64, 1);
        assert!(t > 0.0);
    }
}
