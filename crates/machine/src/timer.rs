//! The timing interface the ADSALA installation workflow consumes.
//!
//! `GemmTimer` answers "run this routine at this GEMM-equivalent shape
//! ([`OpShape::gemm_equivalent`]) on `t` threads and tell me how long it
//! took" — the only thing the paper's data-gathering stage needs from a
//! machine. Two implementations, each timing one [`Routine`]:
//!
//! * [`SimTimer`] — queries the analytic [`MachineModel`] (the paper-scale
//!   experiments: 96–256 thread nodes we do not physically have);
//! * [`HostTimer`] — runs the routine's [`OpRequest`] on the host CPU, as
//!   the service does, and measures wall time.

use std::time::Instant;

use adsala_gemm::dispatch::{GemmArgs, GemvArgs, OpRequest, OpShape, Precision, SyrkArgs};
use adsala_gemm::plan::PlanPoint;
use adsala_gemm::{Routine, ThreadPool};
use adsala_sampling::GemmShape;

use crate::cost::MachineModel;

/// Source of timings for a machine with an execution-plan knob.
pub trait GemmTimer {
    /// Mean wall time (seconds) of `reps` runs of the routine at `shape`
    /// under a plan-grid point. A timer whose machine has only the thread
    /// knob honours the point's thread axis alone.
    fn time_plan(&self, shape: GemmShape, point: &PlanPoint, reps: u32) -> f64;

    /// Mean wall time (seconds) of `reps` runs of `shape` on `threads`: the
    /// default-axes point at that thread count.
    fn time(&self, shape: GemmShape, threads: u32, reps: u32) -> f64 {
        self.time_plan(shape, &PlanPoint::threads_only(threads), reps)
    }

    /// The routine this timer times.
    fn routine(&self) -> Routine;

    /// The machine's maximum thread count (the paper's baseline setting).
    fn max_threads(&self) -> u32;

    /// Short machine identifier for reports.
    fn name(&self) -> String;
}

/// Timer backed by the analytic machine model.
#[derive(Debug, Clone)]
pub struct SimTimer {
    pub model: MachineModel,
    /// The routine timed.
    pub routine: Routine,
}

impl SimTimer {
    /// Wrap a machine model to time GEMM.
    pub fn new(model: MachineModel) -> Self {
        Self::for_routine(model, Routine::Gemm)
    }

    /// Wrap a machine model to time `routine`.
    pub fn for_routine(model: MachineModel, routine: Routine) -> Self {
        Self { model, routine }
    }
}

impl GemmTimer for SimTimer {
    fn time_plan(&self, shape: GemmShape, point: &PlanPoint, reps: u32) -> f64 {
        // The paper times ten iterations of each configuration (§V-B-3).
        let reps = reps.max(1);
        let total: f64 = match self.routine {
            Routine::Gemm => (0..reps).map(|r| self.model.measure_point(shape, point, r)).sum(),
            // Routine models price the thread axis alone, at their own precision.
            routine => {
                let gemm = (shape.m, shape.k, shape.n);
                let [d1, d2, _] = OpShape::from_gemm_equivalent(routine, Precision::F32, gemm).dims;
                (0..reps).map(|r| self.model.measure_op(routine, d1, d2, point.threads, r)).sum()
            }
        };
        total / reps as f64
    }

    fn routine(&self) -> Routine {
        self.routine
    }

    fn max_threads(&self) -> u32 {
        self.model.max_threads()
    }

    fn name(&self) -> String {
        format!("{}{} (simulated)", self.model.topology.name, routine_tag(self.routine))
    }
}

/// The name tag of a timer's routine (" SYRK"); GEMM, the paper's
/// routine, goes untagged.
fn routine_tag(routine: Routine) -> String {
    match routine {
        Routine::Gemm => String::new(),
        routine => format!(" {}", routine.as_str().to_uppercase()),
    }
}

/// Timer that runs one `adsala-gemm` routine in `f32` on the host.
///
/// It times warm execution of an [`OpRequest`] on a persistent pool, the
/// request and executor a service serves with: the process-wide
/// `ThreadPool::global()`, whose workers keep their packing arenas across
/// calls. Operand buffers are reused across repetitions (like the paper's
/// loop of ten same-size GEMMs).
#[derive(Debug, Clone)]
pub struct HostTimer {
    /// Upper bound on threads.
    pub max_threads: u32,
    /// The routine timed.
    pub routine: Routine,
}

impl HostTimer {
    /// GEMM timer with an explicit thread cap.
    pub fn with_max_threads(max_threads: u32) -> Self {
        Self::for_routine(max_threads, Routine::Gemm)
    }

    /// Timer of `routine` with an explicit thread cap.
    pub fn for_routine(max_threads: u32, routine: Routine) -> Self {
        Self { max_threads: max_threads.max(1), routine }
    }
}

impl GemmTimer for HostTimer {
    /// Times `reps` runs after one warm-up run (first-touch, page faults)
    /// kept out of the timing, mirroring standard benchmark practice.
    fn time_plan(&self, shape: GemmShape, point: &PlanPoint, reps: u32) -> f64 {
        let mut plan = point.materialise(Precision::F32);
        plan.threads = plan.threads.clamp(1, self.max_threads);
        // Every routine's operands are its GEMM equivalent's (`A` m×k, `B`
        // k×n, `C` m×n); kernel time does not depend on their values.
        let (m, k, n) = OpShape::project(self.routine, (shape.m, shape.k, shape.n));
        let (m, k, n) = (m as usize, k as usize, n as usize);
        let (lda, ldc) = (k.max(1), n.max(1));
        let a = vec![0.5f32; m * k];
        let b = if self.routine == Routine::Syrk { Vec::new() } else { vec![-0.25f32; k * n] };
        let mut c = vec![0.0f32; m * n];
        let mut request: OpRequest<'_, f32> = match self.routine {
            Routine::Gemm => {
                GemmArgs::untransposed(m, n, k, 1.0, &a, lda, &b, ldc, 0.0, &mut c, ldc).into()
            }
            Routine::Syrk => {
                SyrkArgs { m, k, alpha: 1.0, a: &a, lda, beta: 0.0, c: &mut c, ldc }.into()
            }
            Routine::Gemv => {
                GemvArgs { m, n: k, alpha: 1.0, a: &a, lda, x: &b, beta: 0.0, y: &mut c }.into()
            }
        };

        let pool = ThreadPool::global();
        request.execute_validated(pool, &plan);
        let reps = reps.max(1);
        let start = Instant::now();
        for _ in 0..reps {
            request.execute_validated(pool, &plan);
        }
        start.elapsed().as_secs_f64() / reps as f64
    }

    fn routine(&self) -> Routine {
        self.routine
    }

    fn max_threads(&self) -> u32 {
        self.max_threads
    }

    fn name(&self) -> String {
        format!("host{} ({} threads)", routine_tag(self.routine), self.max_threads)
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
    fn sim_timer_for_routine_keeps_recorded_bits() {
        // Mean times of SYRK and GEMV at a few (shape, threads, reps)
        // points, recorded before SYRK and GEMV timing moved into
        // `SimTimer`: the routine models' noise streams must not move.
        let cases = [
            ("setonix", Routine::Syrk, (800, 300), 32, 5, 0x3f2dfedd4e61928d),
            ("setonix", Routine::Gemv, (800, 300), 32, 5, 0x3ef1016984e3a972),
            ("setonix", Routine::Syrk, (2000, 2000), 1, 3, 0x3fc236dea74d16e9),
            ("setonix", Routine::Gemv, (100, 4000), 256, 1, 0x3f13d468222a0836),
            ("gadi", Routine::Syrk, (100, 4000), 256, 1, 0x3fc558a1e3630ddf),
            ("gadi", Routine::Gemv, (2000, 2000), 1, 3, 0x3f5769812b4df0cd),
            ("gadi", Routine::Syrk, (4000, 200), 7, 10, 0x3f758eecc6845645),
            ("gadi", Routine::Gemv, (4000, 200), 7, 10, 0x3f07e4a04751ec5b),
        ];
        for (machine, routine, (d1, d2), threads, reps, bits) in cases {
            let model =
                if machine == "gadi" { MachineModel::gadi() } else { MachineModel::setonix() };
            let timer = SimTimer::for_routine(model, routine);
            let (m, k, n) = OpShape::project(routine, (d1, d2, 0));
            let shape = GemmShape::new(m, k, n);
            let t = timer.time(shape, threads, reps);
            assert_eq!(t.to_bits(), bits, "{machine} {routine} {shape:?} t={threads} reps={reps}");
            // A thread count is the default-axes point, bit for bit; the
            // other axes, and a GEMM-equivalent `n` the routine does not
            // have, do not enter a routine model.
            let point = PlanPoint::threads_only(threads);
            assert_eq!(timer.time_plan(shape, &point, reps).to_bits(), bits);
            let rescaled =
                PlanPoint { blocking: adsala_gemm::plan::BlockScale::uniform(50), ..point };
            assert_eq!(timer.time_plan(shape, &rescaled, reps).to_bits(), bits);
            let unprojected = GemmShape::new(d1, d2, 77);
            assert_eq!(timer.time_plan(unprojected, &point, reps).to_bits(), bits);
        }
        let syrk = SimTimer::for_routine(MachineModel::setonix(), Routine::Syrk);
        assert_eq!(syrk.routine(), Routine::Syrk);
        assert!(syrk.name().contains("SYRK"));
        assert_eq!(syrk.max_threads(), 256);
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
        use adsala_gemm::plan::BlockScale;
        let model = MachineModel::gadi();
        let timer = SimTimer::new(model.clone());
        let shape = GemmShape::new(300, 300, 300);
        let point = PlanPoint { blocking: BlockScale::uniform(50), ..PlanPoint::threads_only(16) };
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
        use adsala_gemm::plan::{Algorithm, BlockScale};
        let timer = HostTimer::with_max_threads(2);
        let shape = GemmShape::new(48, 48, 48);
        let point = PlanPoint {
            threads: 2,
            blocking: BlockScale::uniform(50),
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
