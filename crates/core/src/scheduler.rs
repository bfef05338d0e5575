//! Admission control plus deadlines in front of [`AdsalaService`].
//!
//! [`ServiceScheduler::submit_with`] is a strict-FIFO gate followed by one
//! call to [`AdsalaService::run_with`]:
//!
//! 1. **Admission**: at most [`SchedulerConfig::max_queue`] ops are in at
//!    once. Later submits wait at the gate in arrival order, so a flood
//!    gets back-pressure instead of piling onto the pool, and a waiting op
//!    is never bypassed — a flood of heavy ops cannot starve a small one.
//! 2. **Execution**: an admitted op runs at once on its caller's thread,
//!    through `run_with` with its thread cap lowered to
//!    [`SchedulerConfig::thread_budget`]. It decides, executes, observes
//!    and recovers exactly like a direct `run_with`: the same memo, the
//!    same prediction-error sums and the same panic boundary, so the
//!    scheduler adds no serving path of its own. The budget is each op's
//!    ceiling; while other ops are in flight, `run_with` lowers it
//!    further to the op's share of the pool, as it does for a direct call.
//!
//! The gate counts ops, not threads. Admitting by the threads of each
//! op's plan would park a small op until a wide one's threads came back,
//! and synchronisation is where the paper finds small GEMMs lose their
//! time (§VI-D); nor does the scheduler plan ops jointly or fuse them.
//!
//! **Deadlines.** Both front doors keep one rule: an op whose deadline
//! passes before it starts is refused with [`AdsalaError::Timeout`] and
//! its output untouched — at the gate (counted in `shed_expired`) or by
//! `run_with` (the service's `deadline_misses`). The configured
//! [`SchedulerConfig::admission_timeout`] bounds every gate wait as well
//! (counted in `admission_timeouts`). A plain [`ServiceScheduler::submit`]
//! has no deadline of its own.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adsala_gemm::dispatch::{OpRequest, OpStats, Routine};
use adsala_gemm::plan::ExecutionPlan;
use adsala_gemm::Element;
use parking_lot::{Condvar, Mutex};

use crate::service::{AdsalaService, RunOptions, ServiceStats};
use crate::AdsalaError;

/// Tunables for [`ServiceScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Ops admitted at once; further submits wait at the gate in arrival
    /// order. Must be ≥ 1.
    pub max_queue: usize,
    /// Cap on each admitted op's threads; 0 means the service pool's
    /// worker count. The cap applies per op and does not sum across ops;
    /// under load the op's share of the pool lowers it further.
    pub thread_budget: usize,
    /// Upper bound on any submit's wait at the gate, regardless of the
    /// call's own deadline. `None` lets a submit wait as long as its
    /// deadline allows.
    pub admission_timeout: Option<Duration>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self { max_queue: 64, thread_budget: 0, admission_timeout: None }
    }
}

/// What one scheduled op came back with: the plan it ran, its model
/// prediction, and the kernel report.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledRun {
    /// The plan the service decided under the op's capped thread count.
    pub plan: ExecutionPlan,
    /// Model-predicted runtime of that plan in seconds.
    pub predicted_runtime_s: f64,
    /// Always `false`: ops do not fuse. Kept for the benchmark adapter
    /// only.
    pub fused: bool,
    /// The executed kernel's report.
    pub stats: OpStats,
}

/// Point-in-time snapshot of the scheduler's counters, with the
/// underlying service's counters attached.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerStats {
    /// Ops ever submitted.
    pub submitted: u64,
    /// Ops fully served (results handed back).
    pub completed: u64,
    /// Admissions so far, one op each.
    pub waves: u64,
    /// Always 0: ops do not fuse. Kept for the benchmark adapter only.
    pub fused_ops: u64,
    /// Submits that found the gate full and waited.
    pub admission_waits: u64,
    /// Submits refused with [`AdsalaError::Timeout`] at the gate because
    /// [`SchedulerConfig::admission_timeout`] passed while they waited.
    pub admission_timeouts: u64,
    /// Submits refused with [`AdsalaError::Timeout`] at the gate because
    /// their own deadline passed while they waited (none were dropped
    /// silently or mid-execution).
    pub shed_expired: u64,
    /// Submits waiting at the gate now.
    pub queue_depth: usize,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: usize,
    /// The cap on each admitted op's threads.
    pub thread_budget: usize,
    /// Σ over completed ops of the model-predicted runtime of the plan
    /// each ran, seconds.
    pub predicted_makespan_s: f64,
    /// Σ over completed ops of the measured admission→completion span,
    /// seconds. Compare against `predicted_makespan_s` to judge the model
    /// on this host.
    pub measured_makespan_s: f64,
    /// The wrapped service's counters (cache, pool, workspace).
    pub service: ServiceStats,
}

/// The gate's state and counters, under one lock.
#[derive(Debug, Default)]
struct Gate {
    /// Ops admitted and not yet finished; at most `max_queue`.
    admitted: usize,
    /// Tickets of the submits waiting, in arrival order.
    waiting: VecDeque<u64>,
    next_ticket: u64,
    submitted: u64,
    completed: u64,
    waves: u64,
    admission_waits: u64,
    admission_timeouts: u64,
    shed_expired: u64,
    max_waiting: usize,
    predicted_makespan_s: f64,
    measured_makespan_s: f64,
}

/// The admission-controlled front-end over an [`AdsalaService`]. See the
/// module docs for the lifecycle.
#[derive(Debug)]
pub struct ServiceScheduler {
    service: Arc<AdsalaService>,
    max_queue: usize,
    thread_budget: usize,
    admission_timeout: Option<Duration>,
    gate: Mutex<Gate>,
    /// Signalled when an admitted op leaves or a waiter gives up.
    space: Condvar,
}

/// An admitted op's place at the gate, handed back on drop — also when
/// the op fails or unwinds, so a failed op can never wedge the gate.
struct Slot<'s> {
    sched: &'s ServiceScheduler,
    admitted_at: Instant,
    /// The predicted runtime of the plan the op ran, once it has
    /// completed.
    completed: Option<f64>,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut gate = self.sched.gate.lock();
        gate.admitted -= 1;
        if let Some(predicted_s) = self.completed {
            gate.completed += 1;
            gate.predicted_makespan_s += predicted_s;
            gate.measured_makespan_s += self.admitted_at.elapsed().as_secs_f64();
        }
        if !gate.waiting.is_empty() {
            self.sched.space.notify_all();
        }
    }
}

impl ServiceScheduler {
    /// Wrap `service` with default tunables (budget = pool workers).
    pub fn new(service: Arc<AdsalaService>) -> Self {
        Self::with_config(service, SchedulerConfig::default())
    }

    /// Wrap `service` with explicit tunables.
    pub fn with_config(service: Arc<AdsalaService>, cfg: SchedulerConfig) -> Self {
        let thread_budget = if cfg.thread_budget == 0 {
            service.pool_workers()
        } else {
            cfg.thread_budget.min(service.pool_workers())
        };
        Self {
            service,
            max_queue: cfg.max_queue.max(1),
            thread_budget: thread_budget.max(1),
            admission_timeout: cfg.admission_timeout,
            gate: Mutex::new(Gate::default()),
            space: Condvar::new(),
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &AdsalaService {
        &self.service
    }

    /// The cap on each admitted op's threads.
    pub fn thread_budget(&self) -> usize {
        self.thread_budget
    }

    /// Submit one op and block until it has been admitted and executed.
    /// Safe to call from any number of client threads.
    pub fn submit<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
    ) -> Result<ScheduledRun, AdsalaError> {
        self.submit_with(req, RunOptions::default())
    }

    /// Like [`ServiceScheduler::submit`] with per-call options. The op
    /// runs under the smaller of its host cap and the thread budget. The
    /// call never waits at the gate past [`RunOptions::deadline`]: an op
    /// still waiting when it passes is refused with
    /// [`AdsalaError::Timeout`] and its output untouched, as `run_with`
    /// refuses an admitted op whose deadline has passed before it starts.
    pub fn submit_with<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
        opts: RunOptions,
    ) -> Result<ScheduledRun, AdsalaError> {
        req.validate()?;
        let mut slot = self.admit(req.routine(), opts.deadline)?;
        let budget = u32::try_from(self.thread_budget).unwrap_or(u32::MAX);
        let capped = RunOptions { host_max_threads: opts.thread_cap().min(budget), ..opts };
        let (decision, stats) = self.service.run_with(req, capped)?;
        slot.completed = Some(decision.predicted_runtime_s);
        Ok(ScheduledRun {
            plan: decision.plan,
            predicted_runtime_s: decision.predicted_runtime_s,
            fused: false,
            stats,
        })
    }

    /// Pass the gate in arrival order, or refuse once `deadline` or the
    /// configured admission timeout passes while waiting.
    fn admit(&self, routine: Routine, deadline: Option<Instant>) -> Result<Slot<'_>, AdsalaError> {
        let mut gate = self.gate.lock();
        gate.submitted += 1;
        if !(gate.waiting.is_empty() && gate.admitted < self.max_queue) {
            // The configured timeout tightens (never loosens) the call's
            // own deadline.
            let timeout = self.admission_timeout.map(|t| Instant::now() + t);
            let until = match (deadline, timeout) {
                (Some(d), Some(t)) => Some(d.min(t)),
                (d, t) => d.or(t),
            };
            let ticket = gate.next_ticket;
            gate.next_ticket += 1;
            gate.waiting.push_back(ticket);
            gate.admission_waits += 1;
            gate.max_waiting = gate.max_waiting.max(gate.waiting.len());
            while !(gate.waiting.front() == Some(&ticket) && gate.admitted < self.max_queue) {
                let now = Instant::now();
                match until {
                    Some(u) if now >= u => {
                        gate.waiting.retain(|&t| t != ticket);
                        // The submit behind this one may be the head now.
                        self.space.notify_all();
                        let why = if deadline.is_some_and(|d| now >= d) {
                            gate.shed_expired += 1;
                            "shed: deadline passed while waiting at the admission gate"
                        } else {
                            gate.admission_timeouts += 1;
                            "refused: admission gate still full at the admission timeout"
                        };
                        return Err(AdsalaError::Timeout(format!("{routine} {why}")));
                    }
                    Some(u) => {
                        self.space.wait_for(&mut gate, u - now);
                    }
                    None => self.space.wait(&mut gate),
                }
            }
            gate.waiting.pop_front();
        }
        gate.admitted += 1;
        gate.waves += 1;
        if !gate.waiting.is_empty() && gate.admitted < self.max_queue {
            // The next in line fits as well.
            self.space.notify_all();
        }
        Ok(Slot { sched: self, admitted_at: Instant::now(), completed: None })
    }

    /// Snapshot every scheduler counter plus the wrapped service's.
    pub fn stats(&self) -> SchedulerStats {
        let service = self.service.stats();
        let gate = self.gate.lock();
        SchedulerStats {
            submitted: gate.submitted,
            completed: gate.completed,
            waves: gate.waves,
            fused_ops: 0,
            admission_waits: gate.admission_waits,
            admission_timeouts: gate.admission_timeouts,
            shed_expired: gate.shed_expired,
            queue_depth: gate.waiting.len(),
            max_queue_depth: gate.max_waiting,
            thread_budget: self.thread_budget,
            predicted_makespan_s: gate.predicted_makespan_s,
            measured_makespan_s: gate.measured_makespan_s,
            service,
        }
    }
}

// Clients on many threads share the scheduler by reference.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<ServiceScheduler>();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::tests::quick_bundle;
    use crate::service::ServiceConfig;
    use adsala_gemm::dispatch::{GemmArgs, Routine};

    fn scheduler(workers: usize, cfg: SchedulerConfig) -> ServiceScheduler {
        let service = Arc::new(AdsalaService::with_config(
            quick_bundle().into_shared(),
            ServiceConfig { pool_workers: workers },
        ));
        ServiceScheduler::with_config(service, cfg)
    }

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f32 - 1000.0) / 350.0
            })
            .collect()
    }

    #[test]
    fn single_op_is_admitted_and_correct() {
        let sched = scheduler(4, SchedulerConfig::default());
        let (m, n, k) = (48usize, 40usize, 24usize);
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut c = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let run = sched.submit(&mut req).unwrap();
        assert_eq!(run.stats.routine, Routine::Gemm);
        assert!(run.plan.threads >= 1);
        assert!(run.predicted_runtime_s > 0.0);
        assert!(!run.fused, "ops never fuse");
        adsala_gemm::naive::naive_gemm(
            adsala_gemm::Transpose::No,
            adsala_gemm::Transpose::No,
            m,
            n,
            k,
            1.0f32,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c_ref,
            n,
        );
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
        let stats = sched.stats();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
        assert_eq!(stats.waves, 1);
        assert_eq!((stats.queue_depth, stats.admission_waits), (0, 0));
        assert_eq!(stats.predicted_makespan_s, run.predicted_runtime_s);
        assert!(stats.measured_makespan_s > 0.0);
    }

    #[test]
    fn host_cap_bounds_the_joint_share() {
        // Each op runs under the smaller of its host cap and the budget.
        let (m, n, k) = (256usize, 256usize, 32usize);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        for (budget, cap) in [(0, 2), (1, 2), (4, 3)] {
            let sched =
                scheduler(4, SchedulerConfig { thread_budget: budget, ..Default::default() });
            let bound = sched.thread_budget().min(cap as usize);
            let mut c = vec![0.0f32; m * n];
            let mut req: OpRequest<'_, f32> =
                GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
            let run = sched.submit_with(&mut req, RunOptions::with_host_cap(cap)).unwrap();
            assert!(run.plan.threads as usize <= bound, "budget {budget}, cap {cap}: {run:?}");
            assert!(run.stats.exec.threads_used <= bound, "budget {budget}, cap {cap}: {run:?}");
        }
    }

    #[test]
    fn admission_queue_applies_back_pressure() {
        // max_queue = 1 with a 1-thread budget: while the one slot is held,
        // every submit waits at the gate rather than piling onto the pool,
        // and all of them are served once it is given back.
        let sched = Arc::new(scheduler(
            2,
            SchedulerConfig { max_queue: 1, thread_budget: 1, ..SchedulerConfig::default() },
        ));
        let clients = 4usize;
        let held = sched.admit(Routine::Gemm, None).unwrap();
        std::thread::scope(|scope| {
            for t in 0..clients {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    let (m, n, k) = (64usize, 64usize, 32usize);
                    let a = fill(m * k, 40 + t as u64);
                    let b = fill(k * n, 80 + t as u64);
                    let mut c = vec![0.0f32; m * n];
                    for _ in 0..3 {
                        let mut req: OpRequest<'_, f32> =
                            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n)
                                .into();
                        let run = sched.submit(&mut req).unwrap();
                        assert!(run.stats.exec.threads_used <= 1, "{run:?}");
                    }
                });
            }
            let start = Instant::now();
            while sched.stats().queue_depth < clients {
                assert!(
                    start.elapsed() < Duration::from_secs(20),
                    "clients never reached the gate"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let stats = sched.stats();
            assert_eq!(
                (stats.waves, stats.completed),
                (1, 0),
                "admitted past a full gate: {stats:?}"
            );
            drop(held);
        });
        let stats = sched.stats();
        assert_eq!(stats.completed, (clients * 3) as u64);
        assert_eq!(stats.waves, stats.completed + 1, "{stats:?}");
        assert_eq!(stats.queue_depth, 0, "{stats:?}");
        assert_eq!(stats.max_queue_depth, clients, "{stats:?}");
        assert!(stats.admission_waits >= clients as u64, "{stats:?}");
    }
}
