//! Fault injection for testing the serving stack's recovery paths.
//!
//! A production GEMM service has to survive the failures the happy path
//! never exercises: a micro-kernel panicking mid-tile, a worker thread
//! wedging mid-batch. This module is the controlled way to *cause* those
//! failures so the recovery machinery (service-boundary panic isolation,
//! degraded retry, deadline shedding) can be tested end to end instead of
//! trusted.
//!
//! A test builds a [`FaultPlan`] in code and installs it with [`set_plan`]:
//!
//! * **kernel panics** — [`FaultPlan::panics`]`(n)` panics the next `n`
//!   kernel entries; [`FaultPlan::on_workers_only`] fires them only on pool
//!   worker threads, so a degraded retry on the caller's thread runs clean;
//! * **worker stalls** — [`FaultPlan::stalls`]`(n, ms)` makes each of the
//!   next `n` jobs a pool worker takes wait `ms` first. Replacing or
//!   clearing the plan ends every wait early, which makes a long stall a
//!   gate a test can hold a job behind and open on cue.
//!
//! Only [`set_plan`] arms a plan. While none is installed, every hook is a
//! single relaxed atomic load — the hot path pays nothing measurable, and
//! the zero-allocation and bitwise-equivalence suites hold unchanged.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// A set of faults to inject, each with a fire budget, plus counters
/// recording what actually fired.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Kernel entries left to panic.
    panics_left: AtomicU64,
    /// Panics fire only on pool worker threads.
    workers_only: bool,
    /// Worker jobs left to stall.
    stalls_left: AtomicU64,
    /// How long each stall waits.
    stall: Duration,
    injected_panics: AtomicU64,
    injected_stalls: AtomicU64,
    /// Set once the plan is replaced or cleared; stalls wait on it.
    stalls_released: Mutex<bool>,
    stall_gate: Condvar,
}

/// Try to consume one unit of a fire budget.
fn consume(budget: &AtomicU64) -> bool {
    budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| left.checked_sub(1)).is_ok()
}

impl FaultPlan {
    /// Panic the next `count` kernel entries, wherever the kernel runs.
    pub fn panics(count: u64) -> FaultPlan {
        FaultPlan { panics_left: AtomicU64::new(count), ..FaultPlan::default() }
    }

    /// Make each of the next `count` jobs a pool worker takes wait
    /// `millis` milliseconds before it runs.
    pub fn stalls(count: u64, millis: u64) -> FaultPlan {
        FaultPlan {
            stalls_left: AtomicU64::new(count),
            stall: Duration::from_millis(millis),
            ..FaultPlan::default()
        }
    }

    /// Fire the plan's panics only on pool worker threads: a kernel entry
    /// on any other thread neither panics nor spends the budget.
    pub fn on_workers_only(mut self) -> FaultPlan {
        self.workers_only = true;
        self
    }

    /// Kernel panics fired so far.
    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Worker stalls fired so far.
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls.load(Ordering::Relaxed)
    }

    fn maybe_panic(&self, m: usize, n: usize, k: usize) {
        let on_worker = crate::workspace::on_worker_thread();
        if (on_worker || !self.workers_only) && consume(&self.panics_left) {
            self.injected_panics.fetch_add(1, Ordering::Relaxed);
            let ctx = if on_worker { "worker" } else { "caller" };
            panic!("injected fault: kernel panic at {m}x{n}x{k} ({ctx})");
        }
    }

    fn maybe_stall(&self) {
        if consume(&self.stalls_left) {
            self.injected_stalls.fetch_add(1, Ordering::Relaxed);
            // A timed wait, not a sleep, so `release_stalls` can end it.
            let released = self.stalls_released.lock().unwrap_or_else(PoisonError::into_inner);
            drop(self.stall_gate.wait_timeout_while(released, self.stall, |released| !*released));
        }
    }

    /// End every stall in progress and make every later one return at once.
    fn release_stalls(&self) {
        *self.stalls_released.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.stall_gate.notify_all();
    }
}

/// Whether `PLAN` holds a plan. It publishes nothing by itself: a hook
/// that reads `true` takes the plan under `PLAN`'s lock, which `set_plan`
/// held while it stored the flag.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// `true` while a fault plan is installed.
#[inline]
pub fn active() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Install (or clear, with `None`) the fault plan. Returns the installed
/// plan so tests can read its fire counters. A plan that is replaced or
/// cleared stops stalling: its stalls in progress are released.
/// Process-global: serialize tests that use it.
pub fn set_plan(plan: Option<FaultPlan>) -> Option<Arc<FaultPlan>> {
    let plan = plan.map(Arc::new);
    let mut slot = PLAN.write().unwrap_or_else(PoisonError::into_inner);
    ARMED.store(plan.is_some(), Ordering::Relaxed);
    if let Some(old) = std::mem::replace(&mut *slot, plan.clone()) {
        old.release_stalls();
    }
    plan
}

/// The installed plan, if any. One relaxed load when none is.
#[inline]
pub fn current_plan() -> Option<Arc<FaultPlan>> {
    if !active() {
        return None;
    }
    PLAN.read().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Hook at the entry of a kernel subproblem: panics while the installed
/// plan's panic budget lasts, naming the subproblem and whether a pool
/// worker or a caller ran it. Its two call sites are the blocked loop
/// nest's tile entry, which every worker of every GEMM algorithm and every
/// SYRK band passes with its tile's `m×n×k`, and the top of GEMV's row
/// range, which every GEMV worker passes with its rows as an `m×1×n`
/// product.
#[inline]
pub fn kernel_entry(m: usize, n: usize, k: usize) {
    if let Some(plan) = current_plan() {
        plan.maybe_panic(m, n, k);
    }
}

/// Hook a pool worker calls before each job: waits while the installed
/// plan's stall budget lasts.
#[inline]
pub fn worker_job_entry() {
    if let Some(plan) = current_plan() {
        plan.maybe_stall();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn budget_limits_fires() {
        let plan = FaultPlan::panics(2);
        assert!(consume(&plan.panics_left));
        assert!(consume(&plan.panics_left));
        assert!(!consume(&plan.panics_left), "budget of 2 fires exactly twice");
        let stalls = FaultPlan::stalls(3, 0);
        (0..3).for_each(|_| stalls.maybe_stall());
        stalls.maybe_stall();
        assert_eq!(stalls.injected_stalls(), 3, "budget of 3 stalls exactly three times");
        assert_eq!(stalls.injected_panics(), 0);
    }

    #[test]
    fn worker_only_panics_spare_callers() {
        let plan = FaultPlan::panics(1).on_workers_only();
        plan.maybe_panic(8, 8, 8);
        assert_eq!(plan.injected_panics(), 0, "a caller-thread entry fired");
        let pool = ThreadPool::new(1);
        let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope_execute(vec![Box::new(|| plan.maybe_panic(8, 8, 8))]);
        }));
        assert!(fired.is_err(), "the worker's entry did not panic");
        assert_eq!(plan.injected_panics(), 1);
        plan.maybe_panic(8, 8, 8);
        assert_eq!(plan.injected_panics(), 1, "the spent budget fired again");
    }
}
